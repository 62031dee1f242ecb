package replica

import (
	"context"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/persist"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

var testOpts = core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24}

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Config{
		Name: "replica", N: 400, NHist: 80, NTest: 30,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 13,
	})
}

// leader is a single-shard primary: fixer over a persisted store with an
// initial sealed generation, the state a serving shard starts from.
type leader struct {
	st *persist.Store
	fx *core.OnlineFixer
	d  *dataset.Dataset
}

func newLeader(t *testing.T, dir string) *leader {
	t.Helper()
	d := testData(t)
	st, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
	ix := core.New(h.Bottom(), testOpts)
	fx := core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20, WAL: st})
	if err := fx.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return &leader{st: st, fx: fx, d: d}
}

// mutate drives journaled work through the leader: inserts, a delete,
// and a fix batch over recorded queries — one of every op-log record
// kind.
func (l *leader) mutate(t *testing.T, seed int) {
	t.Helper()
	for i := 0; i < 5; i++ {
		if _, err := l.fx.Insert(l.d.History.Row((seed + i) % l.d.History.Rows())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.fx.Delete(uint32(seed % 50)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.fx.Search(l.d.TestOOD.Row((seed+i)%l.d.TestOOD.Rows()), 10, 40)
	}
	if _, err := l.fx.FixPending(0); err != nil {
		t.Fatal(err)
	}
}

func startReplica(t *testing.T, src Source, cfg Config) *Replica {
	t.Helper()
	cfg.Opts = testOpts
	if cfg.Poll == 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = time.Millisecond
	}
	cfg.Logf = t.Logf
	r := New(src, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return r
}

// waitCaughtUp blocks until the replica's position equals the leader's.
func waitCaughtUp(t *testing.T, r *Replica, st *persist.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ls := st.ReplicationStatus()
		if r.ready.Load() && r.gen.Load() == ls.Generation && r.appliedBytes.Load() == ls.WALBytes {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never caught up: replica %+v, leader %+v", r.Status(), st.ReplicationStatus())
}

// replicaGraph returns the replica's live graph for comparison. Callers
// must have stopped the tail loop (or know it is idle) first.
func replicaGraph(r *Replica) *graph.Graph {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ix.G
}

// graphsIdentical asserts structural equality: same vectors, edges,
// tombstones, entry point. This is the replication contract — replaying
// the leader's op sequence on the leader's snapshot reproduces the
// leader's graph exactly, not approximately.
func graphsIdentical(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if want.Len() != got.Len() || want.Dim() != got.Dim() || want.Metric != got.Metric {
		t.Fatalf("shape mismatch: %dx%d/%v vs %dx%d/%v",
			want.Len(), want.Dim(), want.Metric, got.Len(), got.Dim(), got.Metric)
	}
	if want.EntryPoint != got.EntryPoint {
		t.Fatalf("entry point %d != %d", got.EntryPoint, want.EntryPoint)
	}
	for i, v := range want.Vectors.Data() {
		if got.Vectors.Data()[i] != v {
			t.Fatalf("vector data differs at %d", i)
		}
	}
	for u := 0; u < want.Len(); u++ {
		uu := uint32(u)
		if want.IsDeleted(uu) != got.IsDeleted(uu) {
			t.Fatalf("vertex %d tombstone differs", u)
		}
		wb, gb := want.BaseNeighbors(uu), got.BaseNeighbors(uu)
		if len(wb) != len(gb) {
			t.Fatalf("vertex %d base degree %d != %d", u, len(gb), len(wb))
		}
		for i := range wb {
			if wb[i] != gb[i] {
				t.Fatalf("vertex %d base edge %d: %d != %d", u, i, gb[i], wb[i])
			}
		}
		we, ge := want.ExtraNeighbors(uu), got.ExtraNeighbors(uu)
		if len(we) != len(ge) {
			t.Fatalf("vertex %d extra degree %d != %d", u, len(ge), len(we))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("vertex %d extra edge %d: %+v != %+v", u, i, ge[i], we[i])
			}
		}
	}
}

// TestBootstrapAndTail is the happy path: snapshot shipping, then WAL
// tailing across all three record kinds, converging to a graph
// bit-identical to the leader's.
func TestBootstrapAndTail(t *testing.T) {
	l := newLeader(t, t.TempDir())
	r := startReplica(t, StoreSource{St: l.st}, Config{})
	waitCaughtUp(t, r, l.st)

	if res, _, ok := r.SearchCtx(nil, l.d.TestOOD.Row(0), 10, 40); !ok || len(res) == 0 {
		t.Fatalf("bootstrapped replica cannot search: ok=%v res=%d", ok, len(res))
	}

	l.mutate(t, 0)
	l.mutate(t, 7)
	waitCaughtUp(t, r, l.st)
	graphsIdentical(t, l.fx.Index().G, replicaGraph(r))

	st := r.Status()
	if st.Resyncs != 0 {
		t.Fatalf("tail-only catch-up resynced %d times", st.Resyncs)
	}
	if st.AppliedRecords == 0 {
		t.Fatal("no records applied")
	}
	if lag := r.Lag(); lag.Bytes != 0 || lag.Records != 0 || lag.Generations != 0 {
		t.Fatalf("caught-up replica reports lag %+v", lag)
	}
}

// TestResyncOnGenerationBump: the leader seals a new generation mid-tail
// (deleting the WAL the replica was following). The replica must detect
// the gap, re-bootstrap from the new snapshot, and converge — and must
// keep serving its old consistent state while it does.
func TestResyncOnGenerationBump(t *testing.T) {
	l := newLeader(t, t.TempDir())
	r := startReplica(t, StoreSource{St: l.st}, Config{})
	l.mutate(t, 0)
	waitCaughtUp(t, r, l.st)

	// A reader hammering the replica across the bump: every answer must
	// come from a complete index (ok once ready never regresses).
	stop := make(chan struct{})
	searchDone := make(chan error, 1)
	go func() {
		defer close(searchDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, ok := r.SearchCtx(nil, l.d.TestOOD.Row(1), 5, 30); !ok {
				searchDone <- nil
				return
			}
		}
	}()

	// Generation bump with fresh mutations behind it.
	if err := l.fx.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l.mutate(t, 3)
	waitCaughtUp(t, r, l.st)
	close(stop)
	if _, open := <-searchDone; open {
		t.Fatal("replica refused a search during resync — availability regressed")
	}

	if got := r.Status(); got.Resyncs == 0 {
		t.Fatalf("generation bump did not force a resync: %+v", got)
	}
	if r.Generation() != l.st.Generation() {
		t.Fatalf("replica at generation %d, leader at %d", r.Generation(), l.st.Generation())
	}
	graphsIdentical(t, l.fx.Index().G, replicaGraph(r))
}

// TestSetScatterMatchesGroup: a whole-index follower (one replica per
// shard) must answer exactly like the leader group once caught up —
// same global ids, same order.
func TestSetScatterMatchesGroup(t *testing.T) {
	d := testData(t)
	const n = 2
	root := t.TempDir()
	stores, err := persist.OpenSharded(root, n, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := shard.Partition(d.Base, n)
	fixers := make([]*core.OnlineFixer, n)
	reps := make([]*Replica, n)
	for s, p := range parts {
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
		ix := core.New(h.Bottom(), testOpts)
		fixers[s] = core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20, WAL: stores[s]})
		if err := fixers[s].Snapshot(); err != nil {
			t.Fatal(err)
		}
		reps[s] = startReplica(t, StoreSource{St: stores[s]}, Config{Shard: s})
	}
	g, err := shard.NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(reps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := g.Insert(d.History.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < n; s++ {
		waitCaughtUp(t, reps[s], stores[s])
	}
	if !set.Ready() {
		t.Fatal("caught-up set not ready")
	}
	for qi := 0; qi < d.TestOOD.Rows(); qi++ {
		q := d.TestOOD.Row(qi)
		want, _ := g.SearchCtx(nil, q, 10, 40, n)
		got, _ := set.SearchCtx(nil, q, 10, 40)
		if len(want) != len(got) {
			t.Fatalf("query %d: %d results vs group's %d", qi, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d result %d: %+v != group's %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestLagMaxGatesReadiness: a replica beyond its configured lag bound
// must report not-ready (it would serve answers staler than the operator
// allows) and recover once it catches back up.
func TestLagMaxGatesReadiness(t *testing.T) {
	l := newLeader(t, t.TempDir())
	// Poll far slower than the test mutates, so lag accumulates.
	r := startReplica(t, StoreSource{St: l.st}, Config{LagMax: 1, Poll: time.Hour})
	deadline := time.Now().Add(5 * time.Second)
	for !r.ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("replica never bootstrapped")
		}
		time.Sleep(time.Millisecond)
	}
	l.mutate(t, 0)
	// Force the lag view current without waiting out the poll.
	st, err := r.src.Status()
	if err != nil {
		t.Fatal(err)
	}
	r.leaderGen.Store(st.Generation)
	r.leaderBytes.Store(st.WALBytes)
	r.leaderRecords.Store(int64(st.WALRecords))
	if r.Ready() {
		t.Fatalf("replica %d bytes behind with LagMax=1 reports ready", r.Lag().Bytes)
	}
	if !r.ready.Load() {
		t.Fatal("lag gating must not un-bootstrap the replica")
	}
}
