package shard

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// fakeReplica is a canned ReadReplica: serves fixed local results so
// tests can tell replica answers from primary answers by id.
type fakeReplica struct {
	res       []graph.Result
	ready     atomic.Bool
	failovers atomic.Int64
}

func (f *fakeReplica) SearchCtx(ctx context.Context, q []float32, k, ef int) ([]graph.Result, graph.Stats, bool) {
	if !f.ready.Load() {
		return nil, graph.Stats{}, false
	}
	return f.res, graph.Stats{NDC: 1}, true
}
func (f *fakeReplica) Ready() bool   { return f.ready.Load() }
func (f *fakeReplica) NoteFailover() { f.failovers.Add(1) }

func buildFailoverGroup(t *testing.T, n int, wedge int, wal *stallWAL) *Group {
	t.Helper()
	d := testDataset(t)
	parts := Partition(d.Base, n)
	fixers := make([]*core.OnlineFixer, n)
	for s, p := range parts {
		cfg := core.OnlineConfig{BatchSize: 1 << 20}
		if s == wedge && wal != nil {
			cfg.WAL = wal
		}
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
		ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 10}}, LEx: 24})
		fixers[s] = core.NewOnlineFixer(ix, cfg)
	}
	g, err := NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNoReplicasNoStale: without replicas SearchStale is the plain
// scatter — stale never set, answers unchanged.
func TestNoReplicasNoStale(t *testing.T) {
	d := testDataset(t)
	g := buildFailoverGroup(t, 2, -1, nil)
	for i := 0; i < 5; i++ {
		res, _, stale := g.SearchStale(nil, d.TestOOD.Row(i), 10, 40, 2)
		if stale {
			t.Fatal("stale set with no replicas configured")
		}
		want, _ := g.SearchCtx(nil, d.TestOOD.Row(i), 10, 40, 2)
		if len(res) != len(want) {
			t.Fatalf("SearchStale %d results, SearchCtx %d", len(res), len(want))
		}
	}
}

// TestUnhealthyShardRoutesToReplica: a shard marked unhealthy serves its
// reads from the replica immediately — no hedge delay — and the answer
// is flagged stale.
func TestUnhealthyShardRoutesToReplica(t *testing.T) {
	d := testDataset(t)
	g := buildFailoverGroup(t, 2, -1, nil)
	rep := &fakeReplica{res: []graph.Result{{ID: 7, Dist: 0}}}
	rep.ready.Store(true)
	bad := atomic.Bool{}
	if err := g.SetReplicas([]ReadReplica{nil, rep}, FailoverPolicy{
		Unhealthy: func(s int) bool { return s == 1 && bad.Load() },
	}); err != nil {
		t.Fatal(err)
	}

	// Healthy: primary answers, no failover.
	if _, _, stale := g.SearchStale(nil, d.TestOOD.Row(0), 10, 40, 2); stale {
		t.Fatal("stale answer from a healthy group")
	}
	if rep.failovers.Load() != 0 {
		t.Fatal("failover noted while healthy")
	}

	bad.Store(true)
	res, _, stale := g.SearchStale(nil, d.TestOOD.Row(0), 10, 40, 2)
	if !stale {
		t.Fatal("unhealthy shard's answer not flagged stale")
	}
	if rep.failovers.Load() == 0 {
		t.Fatal("failover not noted")
	}
	// The replica's canned hit (local 7 on shard 1 → global 7*2+1) must
	// be in the merged answer: distance 0 sorts first.
	wantID := g.Router().Global(1, 7)
	if len(res) == 0 || res[0].ID != wantID {
		t.Fatalf("replica result missing from merge: got %+v, want leading id %d", res, wantID)
	}

	// Replica not ready: reads fall back to the (still answering)
	// primary rather than failing.
	rep.ready.Store(false)
	if _, _, stale := g.SearchStale(nil, d.TestOOD.Row(1), 10, 40, 2); stale {
		t.Fatal("stale answer from an unready replica")
	}
}

// TestHedgedFailoverFrozenWAL is the availability contract: a primary
// whose WAL append froze holds its shard's write lock, so searches on
// that shard block uncancellably — a failure mode no error-based
// detector sees. The hedge timer must route the read to the replica, and
// the query must cost only freshness, not availability.
func TestHedgedFailoverFrozenWAL(t *testing.T) {
	d := testDataset(t)
	wal := newStallWAL()
	g := buildFailoverGroup(t, 2, 0, wal)
	rep := &fakeReplica{res: []graph.Result{{ID: 3, Dist: 0}}}
	rep.ready.Store(true)
	if err := g.SetReplicas([]ReadReplica{rep, nil}, FailoverPolicy{After: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// Wedge shard 0: an insert blocks inside its WAL holding the write
	// lock, so shard 0 searches block behind it.
	for int(g.rr.Load())%2 != 0 {
		if _, err := g.Insert(d.History.Row(0)); err != nil {
			t.Fatal(err)
		}
	}
	go g.Insert(d.History.Row(1))
	select {
	case <-wal.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("insert never reached the stalled WAL")
	}
	defer close(wal.release)

	start := time.Now()
	res, _, stale := g.SearchStale(nil, d.TestOOD.Row(0), 10, 40, 2)
	elapsed := time.Since(start)
	if !stale {
		t.Fatal("frozen shard's read not served stale from replica")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("failover took %v; the hedge should fire after ~10ms", elapsed)
	}
	if rep.failovers.Load() == 0 {
		t.Fatal("failover not noted")
	}
	wantID := g.Router().Global(0, 3)
	found := false
	for _, r := range res {
		if r.ID == wantID {
			found = true
		}
	}
	if !found {
		t.Fatalf("replica's answer for the frozen shard missing: %+v", res)
	}
}

// TestHedgeLeavesFastPrimaryAlone: with a healthy primary the hedge
// never fires, answers are the primary's, and nothing is stale.
func TestHedgeLeavesFastPrimaryAlone(t *testing.T) {
	d := testDataset(t)
	g := buildFailoverGroup(t, 2, -1, nil)
	rep := &fakeReplica{res: []graph.Result{{ID: 9, Dist: 0}}}
	rep.ready.Store(true)
	if err := g.SetReplicas([]ReadReplica{rep, rep}, FailoverPolicy{After: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	res, _, stale := g.SearchStale(nil, d.TestOOD.Row(0), 10, 40, 2)
	if stale || rep.failovers.Load() != 0 {
		t.Fatalf("hedge fired on a fast primary: stale=%v failovers=%d", stale, rep.failovers.Load())
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
}

// TestReplicaCovers: the readiness predicate the server uses to tell
// "degraded but covered" from "shard dark".
func TestReplicaCovers(t *testing.T) {
	g := buildFailoverGroup(t, 2, -1, nil)
	if g.HasReplicas() {
		t.Fatal("HasReplicas true before SetReplicas")
	}
	if g.ReplicaCovers(0) {
		t.Fatal("ReplicaCovers true with no replicas")
	}
	rep := &fakeReplica{}
	if err := g.SetReplicas([]ReadReplica{rep, nil}, FailoverPolicy{}); err != nil {
		t.Fatal(err)
	}
	if !g.HasReplicas() {
		t.Fatal("HasReplicas false after SetReplicas")
	}
	if g.ReplicaCovers(0) {
		t.Fatal("unready replica reported as cover")
	}
	rep.ready.Store(true)
	if !g.ReplicaCovers(0) {
		t.Fatal("ready replica not reported as cover")
	}
	if g.ReplicaCovers(1) {
		t.Fatal("shard without replica reported as covered")
	}
	if err := g.SetReplicas([]ReadReplica{rep}, FailoverPolicy{}); err == nil {
		t.Fatal("replica count mismatch accepted")
	}
}
