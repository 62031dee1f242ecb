package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/graph"
)

// blockingWAL stalls LogInsert until released — a slow disk seam. The
// insert holds the fixer's write lock while stalled, so every search
// behind it blocks too: exactly the scenario where admission control has
// to shed instead of letting goroutines stack unboundedly.
type blockingWAL struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// Callers must register w.unblock with t.Cleanup AFTER creating the
// httptest server: cleanups run last-in-first-out, and the server's
// Close waits for in-flight requests, so the stall has to be released
// before Close runs or a failing assertion mid-stall hangs the binary.
func newBlockingWAL() *blockingWAL {
	return &blockingWAL{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (w *blockingWAL) unblock() { w.once.Do(func() { close(w.release) }) }

func (w *blockingWAL) LogInsert(v []float32) error {
	w.entered <- struct{}{}
	<-w.release
	return nil
}
func (w *blockingWAL) LogDelete(id uint32) error               { return nil }
func (w *blockingWAL) LogFixEdges(u []graph.ExtraUpdate) error { return nil }
func (w *blockingWAL) Snapshot(g *graph.Graph) error           { return nil }

func waitForCond(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBurstShedsDuringWALStall is the acceptance scenario end to end: a
// slow-disk WAL stall wedges the write lock during a search burst. The
// server must (a) keep exactly capacity+queue requests in play and
// answer everyone else 429+Retry-After immediately, (b) time queued
// waiters out against the server budget, (c) return partial results with
// truncated:true from the in-flight searches once the lock frees — their
// deadline fired while they were wedged — and (d) keep the goroutine
// count bounded the whole time. Run with -race.
func TestBurstShedsDuringWALStall(t *testing.T) {
	wal := newBlockingWAL()
	ts, s, d := newTestServerWAL(t, wal)
	t.Cleanup(wal.unblock)
	s.Admission = admission.New(admission.Config{Capacity: 3, QueueDepth: 2, CostUnitEF: 100})
	s.SearchTimeout = 300 * time.Millisecond
	client := ts.Client()

	// Stall the disk mid-insert: the fixer's write lock is now held.
	insertDone := make(chan int, 1)
	go func() {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(InsertRequest{Vector: d.TestOOD.Row(0)})
		resp, err := client.Post(ts.URL+"/v1/insert", "application/json", &buf)
		if err != nil {
			insertDone <- -1
			return
		}
		resp.Body.Close()
		insertDone <- resp.StatusCode
	}()
	<-wal.entered

	baseline := runtime.NumGoroutine()

	// Burst: far more searches than capacity (3, one unit held by the
	// stalled insert) plus queue (2) can hold.
	const burst = 24
	type result struct {
		code      int
		retry     string
		truncated bool
		elapsed   time.Duration
	}
	results := make(chan result, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(SearchRequest{Vector: d.History.Row(i), K: IntPtr(5), EF: IntPtr(30)})
			start := time.Now()
			resp, err := client.Post(ts.URL+"/v1/search", "application/json", &buf)
			if err != nil {
				results <- result{code: -1}
				return
			}
			var sr SearchResponse
			json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			results <- result{
				code: resp.StatusCode, retry: resp.Header.Get("Retry-After"),
				truncated: sr.Truncated, elapsed: time.Since(start),
			}
		}(i)
	}

	// While wedged, the goroutine count is bounded by the burst we sent —
	// each in-flight HTTP exchange costs a handful of goroutines (client
	// transport loops, server conn, background reader), but nothing may
	// stack on top of that per-request constant.
	waitForCond(t, "burst in flight", func() bool {
		return s.Admission.Stats().Shed > 0
	})
	if n := runtime.NumGoroutine(); n > baseline+6*burst {
		t.Fatalf("goroutines ballooned during stall: %d (baseline %d, burst %d)", n, baseline, burst)
	}

	// Free the disk after every shed/timeout has played out.
	waitForCond(t, "queue drained by timeouts", func() bool {
		st := s.Admission.Stats()
		return st.Queued == 0 && st.Shed >= burst-4
	})
	wal.unblock()

	wg.Wait()
	close(results)
	var n200, n429, nTrunc int
	var shedLat []time.Duration
	for r := range results {
		switch r.code {
		case http.StatusOK:
			n200++
			if r.truncated {
				nTrunc++
			}
		case http.StatusTooManyRequests:
			n429++
			if r.retry == "" {
				t.Fatal("429 without Retry-After")
			}
			shedLat = append(shedLat, r.elapsed)
		default:
			t.Fatalf("unexpected status %d", r.code)
		}
	}
	// Capacity 3 minus the stalled insert leaves 2 searches in flight;
	// everyone else was shed at the door or timed out in the queue.
	if n200 != 2 || n429 != burst-2 {
		t.Fatalf("burst outcome: %d OK, %d shed (want 2 and %d)", n200, n429, burst-2)
	}
	// The in-flight searches sat past their 300ms budget behind the lock,
	// so they must have come back partial, not complete.
	if nTrunc != n200 {
		t.Fatalf("%d of %d in-flight searches reported truncation", nTrunc, n200)
	}
	// Shedding is immediate: even p99 of the shed responses is far below
	// the stall duration (bounded by the queue-wait budget).
	sort.Slice(shedLat, func(i, j int) bool { return shedLat[i] < shedLat[j] })
	if p99 := shedLat[len(shedLat)*99/100]; p99 > 2*time.Second {
		t.Fatalf("shed p99 %s: shedding is supposed to be immediate", p99)
	}

	if code := <-insertDone; code != http.StatusOK {
		t.Fatalf("stalled insert finished with %d", code)
	}

	// Counters made it to /v1/stats.
	st := getStats(t, ts.URL)
	if st.Admission == nil || st.Admission.Shed < uint64(burst-4) || st.TruncatedSearches < 2 {
		t.Fatalf("overload counters not surfaced: %+v", st)
	}
	if st.Admission.MaxQueued > 2 {
		t.Fatalf("queue exceeded its bound: %+v", st.Admission)
	}

	// Recovered: normal serving, goroutines back to earth.
	var sr SearchResponse
	if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1), K: IntPtr(3), EF: IntPtr(30)}, &sr); resp.StatusCode != http.StatusOK || sr.Truncated {
		t.Fatalf("post-recovery search: status %d truncated %v", resp.StatusCode, sr.Truncated)
	}
	waitForCond(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline+8
	})
}

// A search whose server budget has already expired when it reaches the
// beam must answer 200 with the partial results it has and truncated:
// true — not hang, not 500.
func TestExpiredBudgetReturnsTruncatedPartial(t *testing.T) {
	ts, s, d := newTestServerFull(t)
	s.SearchTimeout = time.Nanosecond
	var sr SearchResponse
	resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(5), EF: IntPtr(50)}, &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !sr.Truncated {
		t.Fatal("expired budget not reported as truncated")
	}
	if len(sr.Results) > 5 {
		t.Fatalf("truncated search returned %d results", len(sr.Results))
	}
	if st := getStats(t, ts.URL); st.TruncatedSearches != 1 {
		t.Fatalf("TruncatedSearches = %d, want 1", st.TruncatedSearches)
	}
	// Restore the budget: full answers resume.
	s.SearchTimeout = 0
	var full SearchResponse
	resp = post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1), K: IntPtr(5), EF: IntPtr(50)}, &full)
	if resp.StatusCode != http.StatusOK || full.Truncated || len(full.Results) != 5 {
		t.Fatalf("recovered search: status %d truncated %v results %d", resp.StatusCode, full.Truncated, len(full.Results))
	}
}

// Mass client disconnect during a WAL stall: queued waiters must leave
// the queue promptly (freeing their slots), the server must survive, and
// every goroutine must drain once the stall clears.
func TestMassClientDisconnectDuringStall(t *testing.T) {
	wal := newBlockingWAL()
	ts, s, d := newTestServerWAL(t, wal)
	t.Cleanup(wal.unblock)
	s.Admission = admission.New(admission.Config{Capacity: 2, QueueDepth: 4, CostUnitEF: 100})
	client := ts.Client()

	insertDone := make(chan struct{})
	go func() {
		defer close(insertDone)
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(InsertRequest{Vector: d.TestOOD.Row(0)})
		if resp, err := client.Post(ts.URL+"/v1/insert", "application/json", &buf); err == nil {
			resp.Body.Close()
		}
	}()
	<-wal.entered
	baseline := runtime.NumGoroutine()

	ctx, cancelAll := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(SearchRequest{Vector: d.History.Row(i), K: IntPtr(3), EF: IntPtr(30)})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search", &buf)
			req.Header.Set("Content-Type", "application/json")
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	// 1 search admitted (capacity 2 minus the insert), 4 queued.
	waitForCond(t, "queue to fill", func() bool { return s.Admission.Stats().Queued == 4 })

	// Everyone hangs up at once.
	cancelAll()
	wg.Wait()
	waitForCond(t, "queue to empty after disconnects", func() bool {
		st := s.Admission.Stats()
		return st.Queued == 0 && st.TimedOut >= 4
	})

	wal.unblock()
	<-insertDone
	waitForCond(t, "admission to drain", func() bool { return s.Admission.Stats().InUse == 0 })

	// The process took no damage: fresh clients get full service.
	var sr SearchResponse
	if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1), K: IntPtr(3), EF: IntPtr(30)}, &sr); resp.StatusCode != http.StatusOK || len(sr.Results) != 3 {
		t.Fatalf("search after mass disconnect: status %d results %d", resp.StatusCode, len(sr.Results))
	}
	waitForCond(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline+8
	})
}

// Inserts, deletes, and fixes are governed too: with capacity wedged,
// they queue within bounds and shed beyond them — no unguarded side door
// into the index.
func TestMutationsGoverned(t *testing.T) {
	wal := newBlockingWAL()
	ts, s, d := newTestServerWAL(t, wal)
	t.Cleanup(wal.unblock)
	s.Admission = admission.New(admission.Config{Capacity: 1, QueueDepth: 1, CostUnitEF: 100})
	client := ts.Client()

	insertDone := make(chan struct{})
	go func() {
		defer close(insertDone)
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(InsertRequest{Vector: d.TestOOD.Row(0)})
		if resp, err := client.Post(ts.URL+"/v1/insert", "application/json", &buf); err == nil {
			resp.Body.Close()
		}
	}()
	<-wal.entered

	// One follower fits in the queue...
	queuedDone := make(chan int, 1)
	go func() {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(DeleteRequest{ID: 1})
		resp, err := client.Post(ts.URL+"/v1/delete", "application/json", &buf)
		if err != nil {
			queuedDone <- -1
			return
		}
		resp.Body.Close()
		queuedDone <- resp.StatusCode
	}()
	waitForCond(t, "delete to queue", func() bool { return s.Admission.Stats().Queued == 1 })

	// ...and the next mutation of any flavor is shed with the contract.
	for _, c := range []struct{ path, body string }{
		{"/v1/fix", `{}`},
		{"/v1/delete", `{"id":2}`},
		{"/v1/purge", `{"k":5,"ef":30}`},
	} {
		resp, err := client.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s while saturated: status %d, want 429", c.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 429 without Retry-After", c.path)
		}
	}

	wal.unblock()
	<-insertDone
	if code := <-queuedDone; code != http.StatusOK {
		t.Fatalf("queued delete finished with %d", code)
	}
}

// Pressure-driven degradation: with the queue past its threshold, an
// expensive search is admitted at a clamped ef (reported in the
// response) instead of either running at full cost or being dropped.
func TestPressureClampsEF(t *testing.T) {
	wal := newBlockingWAL()
	ts, s, d := newTestServerWAL(t, wal)
	t.Cleanup(wal.unblock)
	s.Admission = admission.New(admission.Config{Capacity: 2, QueueDepth: 4, CostUnitEF: 100, PressureThreshold: 0.5})
	s.EFFloor = 16
	client := ts.Client()

	insertDone := make(chan struct{})
	go func() {
		defer close(insertDone)
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(InsertRequest{Vector: d.TestOOD.Row(0)})
		if resp, err := client.Post(ts.URL+"/v1/insert", "application/json", &buf); err == nil {
			resp.Body.Close()
		}
	}()
	<-wal.entered

	// Push the queue past the 0.5 threshold with cancellable waiters: one
	// is admitted (capacity 2 minus the insert), three queue.
	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(SearchRequest{Vector: d.History.Row(i), K: IntPtr(3), EF: IntPtr(30)})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search", &buf)
			req.Header.Set("Content-Type", "application/json")
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	waitForCond(t, "pressure past threshold", func() bool { return s.Admission.Pressure() >= 0.75 })

	// Under pressure 0.75 a big-ef search gets clamped twice at the
	// door: the admission budget first (ef 400 could never fit capacity
	// 2 honestly, so it shrinks to MaxEF = 200), then the pressure
	// policy: ef = 200 - 0.5*(200-16) = 108. The clamps also shrink its
	// cost, so it still fits the queue's last slot and survives.
	probeDone := make(chan SearchResponse, 1)
	go func() {
		var sr SearchResponse
		resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1), K: IntPtr(5), EF: IntPtr(400)}, &sr)
		if resp.StatusCode != http.StatusOK {
			sr.EFUsed = -resp.StatusCode
		}
		probeDone <- sr
	}()
	waitForCond(t, "probe to queue", func() bool { return s.Admission.Stats().Queued == 4 })

	// Clear the stall: the cancellable waiters hang up, the probe drains
	// through the queue and answers with its degraded quality on record.
	cancelAll()
	wg.Wait()
	wal.unblock()
	<-insertDone
	sr := <-probeDone
	if sr.EFUsed < 0 {
		t.Fatalf("pressured probe failed with status %d", -sr.EFUsed)
	}
	if !sr.Clamped || sr.EFUsed != 108 {
		t.Fatalf("pressured probe: clamped=%v efUsed=%d, want clamped ef 108", sr.Clamped, sr.EFUsed)
	}
	waitForCond(t, "admission to drain", func() bool { return s.Admission.Stats().InUse == 0 })
	if st := getStats(t, ts.URL); st.ClampedSearches != 1 {
		t.Fatalf("ClampedSearches = %d, want 1", st.ClampedSearches)
	}

	// Pressure gone: the pressure clamp releases, but the budget clamp
	// still holds ef to what the capacity can honestly admit.
	var full SearchResponse
	if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1), K: IntPtr(5), EF: IntPtr(400)}, &full); resp.StatusCode != http.StatusOK {
		t.Fatalf("idle big-ef search: status %d", resp.StatusCode)
	}
	if !full.Clamped || full.EFUsed != 200 {
		t.Fatalf("idle search: clamped=%v efUsed=%d, want budget-clamped ef 200", full.Clamped, full.EFUsed)
	}
	// A request inside the budget runs unclamped now that pressure is gone.
	var inBudget SearchResponse
	if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(1), K: IntPtr(5), EF: IntPtr(150)}, &inBudget); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget search: status %d", resp.StatusCode)
	}
	if inBudget.Clamped || inBudget.EFUsed != 150 {
		t.Fatalf("in-budget search clamped: %+v", inBudget)
	}
}

// TestOverloadStress hammers a small-capacity server with concurrent
// searches under -race and asserts the safety envelope: every response
// is 200 or 429, the queue never exceeds its bound, goroutines stay
// bounded by the offered load, and p99 latency stays within the server
// budget plus slack — overload costs quality and admission, never
// stability.
func TestOverloadStress(t *testing.T) {
	ts, s, d := newTestServerFull(t)
	s.Admission = admission.New(admission.Config{Capacity: 2, QueueDepth: 4, CostUnitEF: 30, PressureThreshold: 0.25})
	s.SearchTimeout = 250 * time.Millisecond
	s.EFFloor = 8
	client := ts.Client()

	baseline := runtime.NumGoroutine()
	const workers = 16
	const perWorker = 30
	lat := make([]time.Duration, 0, workers*perWorker)
	var latMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ef := 30 + (w%4)*60 // mix of cheap and expensive queries
				var buf bytes.Buffer
				json.NewEncoder(&buf).Encode(SearchRequest{
					Vector: d.History.Row((w*perWorker + i) % d.History.Rows()),
					K:      IntPtr(5), EF: IntPtr(ef),
				})
				start := time.Now()
				resp, err := client.Post(ts.URL+"/v1/search", "application/json", &buf)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				resp.Body.Close()
				elapsed := time.Since(start)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
				latMu.Lock()
				lat = append(lat, elapsed)
				latMu.Unlock()
				if n := runtime.NumGoroutine(); n > baseline+6*workers {
					t.Errorf("goroutines unbounded under load: %d (baseline %d)", n, baseline)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Admission.Stats()
	if st.InUse != 0 || st.Queued != 0 {
		t.Fatalf("admission leaked state: %+v", st)
	}
	if st.MaxQueued > 4 {
		t.Fatalf("queue exceeded bound: %+v", st)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p99 := lat[len(lat)*99/100]; p99 > s.SearchTimeout+2*time.Second {
		t.Fatalf("p99 latency %s blew through the budget", p99)
	}
	waitForCond(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline+8
	})
	// Coherence: everything offered was either admitted or refused.
	total := st.Admitted + st.Shed + st.TimedOut
	if total < workers*perWorker {
		t.Fatalf("admission accounting lost requests: %+v (offered %d)", st, workers*perWorker)
	}
}
