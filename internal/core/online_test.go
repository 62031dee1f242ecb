package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

func TestOnlineFixerBatching(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 20}}, LEx: 32})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 10, SampleEvery: 2})

	for qi := 0; qi < 10; qi++ {
		res, st := o.Search(d.History.Row(qi), 10, 20)
		if len(res) == 0 || st.NDC == 0 {
			t.Fatal("online search returned nothing")
		}
	}
	// SampleEvery=2 → 5 recorded.
	if got := o.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	rep, _ := o.FixPending(0)
	if rep.Queries != 5 {
		t.Fatalf("fixed %d queries, want 5", rep.Queries)
	}
	if o.Pending() != 0 {
		t.Fatal("pending not drained")
	}
	fixed, batches := o.Stats()
	if fixed != 5 || batches != 1 {
		t.Fatalf("Stats = %d,%d", fixed, batches)
	}
	// Empty drain is a no-op.
	if rep, _ := o.FixPending(0); rep.Queries != 0 {
		t.Fatal("empty FixPending did work")
	}
}

func TestOnlineFixerAutoFix(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 8, AutoFix: true})
	for qi := 0; qi < 8; qi++ {
		o.Search(d.History.Row(qi), 10, 20)
	}
	fixed, batches := o.Stats()
	if fixed != 8 || batches != 1 {
		t.Fatalf("auto fix did not trigger: fixed=%d batches=%d", fixed, batches)
	}
}

// The online loop must actually improve the live workload: serve OOD
// queries, fix with them, and verify recall on *fresh* queries from the
// same distribution improved.
func TestOnlineFixerImprovesLiveWorkload(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 20, RFix: true}, {K: 10}}, LEx: 32})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 400, PrepEF: 150})

	fresh := d.TestOOD
	gt := bruteforce.AllKNN(d.Base, fresh, vec.L2, 10)
	recallNow := func() float64 {
		var sum float64
		for qi := 0; qi < fresh.Rows(); qi++ {
			res, _ := o.Search(fresh.Row(qi), 10, 15)
			sum += metrics.Recall(graph.IDs(res), bruteforce.IDs(gt[qi]))
		}
		return sum / float64(fresh.Rows())
	}
	before := recallNow()
	// Reset the buffer (the measurement itself recorded queries — drain
	// them away so the fix uses only the history stream).
	o.FixPending(0)
	for qi := 0; qi < d.History.Rows(); qi++ {
		o.Search(d.History.Row(qi), 10, 15)
	}
	o.FixPending(0)
	after := recallNow()
	if after <= before {
		t.Fatalf("online fixing did not improve live recall: %.3f -> %.3f", before, after)
	}
	t.Logf("live OOD recall@10 (ef=15): %.3f -> %.3f", before, after)
}

// Concurrent searches racing with fix batches and maintenance must be
// race-free (run with -race) and always return valid results.
func TestOnlineFixerConcurrency(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	// The WAL with per-batch and per-mutation snapshot cadence makes every
	// maintenance call below also exercise snapshot-while-searching: the
	// snapshot reads the graph with only the mutation mutex held.
	wal := &recordingWAL{}
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 25, WAL: wal, SnapshotEveryBatches: 1, SnapshotEveryMutations: 1})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := d.TestOOD.Row((i*7 + w) % d.TestOOD.Rows())
				res, _ := o.Search(q, 5, 15)
				if len(res) == 0 {
					errs <- "empty result during concurrent fixing"
					return
				}
			}
		}(w)
	}
	// Interleave fixes, an insert, and a delete+purge.
	for round := 0; round < 3; round++ {
		for qi := 0; qi < 30; qi++ {
			o.Search(d.History.Row((round*30+qi)%d.History.Rows()), 5, 15)
		}
		o.FixPending(0)
	}
	o.Insert(d.History.Row(0))
	o.Delete(3)
	o.PurgeAndRepair(10, 60)
	close(stop)
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if err := o.Index().G.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, snaps := wal.counts(); snaps == 0 {
		t.Fatal("no snapshot ran during the concurrent workload")
	}
}

// A full recording buffer sheds the oldest query, not the newest: the
// freshest traffic is the most valuable repair signal.
func TestOnlineFixerShedsOldest(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 4})

	for qi := 0; qi < 6; qi++ {
		o.Search(d.History.Row(qi), 5, 15)
	}
	st := o.OnlineStats()
	if st.Pending != 4 {
		t.Fatalf("Pending = %d, want 4", st.Pending)
	}
	if st.ShedQueries != 2 {
		t.Fatalf("ShedQueries = %d, want 2", st.ShedQueries)
	}
	// Queries 0 and 1 were shed; the buffer should start at query 2.
	want := d.History.Row(2)
	got := o.pending.Row(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("oldest retained query is not query 2 (dim %d: %v != %v)", i, got[i], want[i])
		}
	}
}

// recordingWAL captures the fixer's durability calls for inspection and
// can be told to fail.
type recordingWAL struct {
	mu        sync.Mutex
	inserts   [][]float32
	deletes   []uint32
	fixes     [][]graph.ExtraUpdate
	snapshots int
	fail      error
}

func (w *recordingWAL) LogInsert(v []float32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return w.fail
	}
	w.inserts = append(w.inserts, append([]float32(nil), v...))
	return nil
}

func (w *recordingWAL) LogDelete(id uint32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return w.fail
	}
	w.deletes = append(w.deletes, id)
	return nil
}

func (w *recordingWAL) LogFixEdges(updates []graph.ExtraUpdate) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return w.fail
	}
	w.fixes = append(w.fixes, updates)
	return nil
}

func (w *recordingWAL) Snapshot(g *graph.Graph) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return w.fail
	}
	// Walk the graph the way a real serializer would: under -race this
	// asserts snapshots see a quiescent graph while searches keep running.
	g.EdgeCount()
	w.snapshots++
	return nil
}

func (w *recordingWAL) counts() (ins, del, fix, snaps int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inserts), len(w.deletes), len(w.fixes), w.snapshots
}

// Every durable mutation must reach the WAL, and the snapshot cadences
// must fire: per fix batch, and as a barrier after a purge.
func TestOnlineFixerJournalsToWAL(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	wal := &recordingWAL{}
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 20, WAL: wal, SnapshotEveryBatches: 1})

	v := append([]float32(nil), d.History.Row(0)...)
	o.Insert(v)
	if changed, _ := o.Delete(5); !changed {
		t.Fatal("delete failed")
	}
	if changed, _ := o.Delete(5); changed {
		t.Fatal("double delete reported a change")
	}
	for qi := 0; qi < 20; qi++ {
		o.Search(d.History.Row(qi), 10, 15)
	}
	rep, _ := o.FixPending(0)
	if rep.NGFixEdges+rep.RFixEdges == 0 {
		t.Fatal("fix batch added no edges; workload too easy to test journaling")
	}

	ins, del, fix, snaps := wal.counts()
	if ins != 1 || wal.inserts[0][0] != v[0] {
		t.Fatalf("inserts journaled: %d, want 1 with matching vector", ins)
	}
	if del != 1 || wal.deletes[0] != 5 {
		t.Fatalf("deletes journaled: %v, want [5]", wal.deletes)
	}
	if fix != 1 || len(wal.fixes[0]) == 0 {
		t.Fatalf("fix batches journaled: %d (updates %d), want 1 non-empty", fix, len(wal.fixes[0]))
	}
	// The journaled updates must mirror the live extra adjacency exactly.
	for _, up := range wal.fixes[0] {
		live := ix.G.ExtraNeighbors(up.U)
		if len(live) != len(up.Edges) {
			t.Fatalf("vertex %d journaled %d extra edges, live has %d", up.U, len(up.Edges), len(live))
		}
		for i := range live {
			if live[i] != up.Edges[i] {
				t.Fatalf("vertex %d edge %d: journaled %v, live %v", up.U, i, up.Edges[i], live[i])
			}
		}
	}
	if snaps != 1 {
		t.Fatalf("snapshots after one fix batch: %d, want 1 (SnapshotEveryBatches=1)", snaps)
	}

	// A purge rewrites base edges, which the log cannot express, so it
	// must be followed by a barrier snapshot.
	if prep := o.PurgeAndRepair(10, 60); prep.Purged == 0 {
		t.Fatal("purge removed nothing")
	}
	if _, _, _, snaps = wal.counts(); snaps != 2 {
		t.Fatalf("snapshots after purge: %d, want 2", snaps)
	}
	if st := o.OnlineStats(); st.WALErrors != 0 {
		t.Fatalf("healthy WAL recorded errors: %+v", st)
	}

	// WAL failures are absorbed, not propagated to serving.
	wal.fail = errTestWAL
	o.Insert(v)
	if changed, _ := o.Delete(7); !changed {
		t.Fatal("delete refused while WAL failing")
	}
	st := o.OnlineStats()
	if st.WALErrors != 2 || st.LastWALError == "" {
		t.Fatalf("WAL failures not counted: %+v", st)
	}
}

var errTestWAL = errors.New("wal sink unavailable")

// Durability failures must be observable (Degraded, checked errors) and a
// successful snapshot — which captures the full in-memory state — must
// clear the condition.
func TestDurabilityDegradationAndRecovery(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	wal := &recordingWAL{}
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 10, WAL: wal})

	if o.Degraded() {
		t.Fatal("fresh fixer reports degraded durability")
	}
	// Range checks live behind the fixer's lock now: an unknown id is a
	// checked error, not a panic, and never reaches the WAL.
	if _, err := o.Delete(uint32(g.Len())); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("out-of-range delete error = %v, want ErrUnknownID", err)
	}
	if changed, _ := o.Delete(99999); changed {
		t.Fatal("out-of-range Delete reported a change")
	}

	wal.fail = errTestWAL
	v := append([]float32(nil), d.History.Row(0)...)
	if _, err := o.Insert(v); err == nil {
		t.Fatal("insert with failing WAL acknowledged durability")
	}
	if !o.Degraded() {
		t.Fatal("failed journal append did not degrade durability")
	}
	if changed, err := o.Delete(5); !changed || err == nil {
		t.Fatalf("delete with failing WAL: changed=%v err=%v, want applied with error", changed, err)
	}
	if err := o.Snapshot(); err == nil {
		t.Fatal("snapshot with failing WAL succeeded")
	}
	if !o.Degraded() {
		t.Fatal("failed snapshot cleared the degraded condition")
	}

	wal.fail = nil
	if err := o.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if o.Degraded() {
		t.Fatal("successful snapshot did not clear the degraded condition")
	}
	st := o.OnlineStats()
	if st.WALErrors != 3 || st.LastWALError != "" {
		t.Fatalf("counters after recovery: WALErrors=%d LastWALError=%q, want 3 and empty", st.WALErrors, st.LastWALError)
	}
	if st.Vectors != g.Len() || st.Live != g.Len()-1 {
		t.Fatalf("graph shape in stats: vectors=%d live=%d, want %d and %d", st.Vectors, st.Live, g.Len(), g.Len()-1)
	}
}

func TestBackoffDelay(t *testing.T) {
	base := 100 * time.Millisecond
	mid := func(fails int) time.Duration { return BackoffDelay(base, fails, 0.5) }
	if d := mid(1); d != base {
		t.Fatalf("first retry %s, want %s", d, base)
	}
	if d := mid(3); d != 4*base {
		t.Fatalf("third retry %s, want %s", d, 4*base)
	}
	if d := mid(10); d != 32*base {
		t.Fatalf("deep retry %s, want cap %s", d, 32*base)
	}
	// One-minute ceiling regardless of base.
	if d := BackoffDelay(10*time.Second, 6, 0.5); d != time.Minute {
		t.Fatalf("long-base retry %s, want 1m ceiling", d)
	}
	// Jitter spans [0.75, 1.25)×.
	if d := BackoffDelay(base, 1, 0); d != 75*time.Millisecond {
		t.Fatalf("u=0 jitter %s, want 75ms", d)
	}
	if d := BackoffDelay(base, 1, 0.999); d >= 125*time.Millisecond || d <= base {
		t.Fatalf("u→1 jitter %s, want just under 125ms", d)
	}
	if d := BackoffDelay(0, 1, 0.5); d != time.Second {
		t.Fatalf("zero base %s, want 1s default", d)
	}
}

// BackoffDelay must be safe at any failure count and any jitter draw:
// within [0.75×base, 1.25×cap] bounds, monotone (non-decreasing) growth
// for a fixed draw, and no overflow however many failures accumulate.
func TestBackoffDelayBounds(t *testing.T) {
	base := 50 * time.Millisecond
	cap := time.Minute
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		prev := time.Duration(0)
		for fails := 1; fails <= 64; fails++ {
			d := BackoffDelay(base, fails, u)
			if d <= 0 {
				t.Fatalf("fails=%d u=%v: non-positive delay %s", fails, u, d)
			}
			if lo := time.Duration(0.75 * float64(base)); d < lo {
				t.Fatalf("fails=%d u=%v: delay %s below jittered base %s", fails, u, d, lo)
			}
			if hi := time.Duration(1.25 * float64(cap)); d > hi {
				t.Fatalf("fails=%d u=%v: delay %s above jittered cap %s", fails, u, d, hi)
			}
			if d < prev {
				t.Fatalf("fails=%d u=%v: delay %s shrank from %s", fails, u, d, prev)
			}
			prev = d
		}
	}
	// Absurd failure counts must not overflow the shift or the duration.
	for _, fails := range []int{1 << 20, 1 << 40, int(^uint(0) >> 1)} {
		d := BackoffDelay(base, fails, 0.999)
		if d <= 0 || d > time.Duration(1.25*float64(cap)) {
			t.Fatalf("fails=%d: delay %s out of bounds", fails, d)
		}
	}
}

// A cancelled search must stop within a few hops, return the partial
// results it has, flag the truncation — and still record the query as
// repair signal.
func TestOnlineFixerSearchCtxTruncates(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 50})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, st := o.SearchCtx(ctx, d.History.Row(0), 10, 100)
	if !st.Truncated {
		t.Fatal("cancelled search not flagged Truncated")
	}
	if st.Hops != 0 {
		t.Fatalf("cancelled search expanded %d hops", st.Hops)
	}
	if len(res) > 1 {
		t.Fatalf("cancelled search returned %d results", len(res))
	}
	if o.Pending() != 1 {
		t.Fatalf("truncated query not recorded: pending %d", o.Pending())
	}
	// An uncancelled context leaves searches untouched.
	res, st = o.SearchCtx(context.Background(), d.History.Row(1), 10, 100)
	if st.Truncated || len(res) != 10 {
		t.Fatalf("live-context search: truncated=%v results=%d", st.Truncated, len(res))
	}
}

// Cancellation during a backoff sleep must return promptly — a shutdown
// signal cannot wait out a minute-long retry delay.
func TestRunBackgroundCancelDuringBackoff(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	wal := &recordingWAL{fail: errTestWAL}
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 10, WAL: wal})
	for qi := 0; qi < 10; qi++ {
		o.Search(d.History.Row(qi), 5, 15)
	}

	// With a 1s cadence the first (failing) attempt schedules a backoff
	// sleep of at least 750ms; cancelling right after the failure line
	// must not wait it out.
	failed := make(chan struct{})
	var once sync.Once
	logf := func(format string, args ...interface{}) {
		if strings.Contains(format, "online fix failed") {
			once.Do(func() { close(failed) })
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		o.RunBackground(ctx, time.Second, logf)
		close(done)
	}()
	select {
	case <-failed:
	case <-time.After(10 * time.Second):
		t.Fatal("fix failure never happened")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
		t.Fatal("RunBackground did not return promptly from a backoff sleep")
	}
}

// The background loop must survive a failing fix attempt: back off, log,
// retry, and report recovery — not die like the old time.Tick goroutine.
func TestRunBackgroundRetriesAfterFailure(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32})
	wal := &recordingWAL{fail: errTestWAL}
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 10, WAL: wal})

	for qi := 0; qi < 10; qi++ {
		o.Search(d.History.Row(qi), 5, 15)
	}

	var logMu sync.Mutex
	var lines []string
	logf := func(format string, args ...interface{}) {
		logMu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		o.RunBackground(ctx, 2*time.Millisecond, logf)
		close(done)
	}()

	deadline := time.Now().Add(5 * time.Second)
	seen := func(substr string) bool {
		logMu.Lock()
		defer logMu.Unlock()
		for _, l := range lines {
			if strings.Contains(l, substr) {
				return true
			}
		}
		return false
	}
	for !(seen("online fix failed") && seen("recovered")) {
		if time.Now().After(deadline) {
			logMu.Lock()
			t.Fatalf("backoff/recovery never logged; lines: %q", lines)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done

	// The batch itself was applied (repair is not rolled back when only
	// journaling fails) and the failure is on the counters.
	if fixed, batches := o.Stats(); fixed != 10 || batches != 1 {
		t.Fatalf("Stats = %d,%d, want 10,1", fixed, batches)
	}
	if st := o.OnlineStats(); st.WALErrors == 0 {
		t.Fatal("WAL failure not counted")
	}
}
