package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/replica"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// stallStoreWAL delegates to a real store but can be switched to stall
// (append blocks holding the fixer's write lock — the frozen-disk
// failure) or fail (append errors — the degraded-durability failure).
// Both failure modes leave the store's on-disk state exactly as it was,
// which is what a replica keeps serving from.
type stallStoreWAL struct {
	st      *persist.Store
	stall   atomic.Bool
	fail    atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newStallStoreWAL(st *persist.Store) *stallStoreWAL {
	return &stallStoreWAL{st: st, entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (w *stallStoreWAL) unblock() { w.once.Do(func() { close(w.release) }) }

func (w *stallStoreWAL) gate() error {
	if w.fail.Load() {
		return errShardDisk
	}
	if w.stall.Load() {
		w.entered <- struct{}{}
		<-w.release
	}
	return nil
}

func (w *stallStoreWAL) LogInsert(v []float32) error {
	if err := w.gate(); err != nil {
		return err
	}
	return w.st.LogInsert(v)
}

func (w *stallStoreWAL) LogDelete(id uint32) error {
	if err := w.gate(); err != nil {
		return err
	}
	return w.st.LogDelete(id)
}

func (w *stallStoreWAL) LogFixEdges(u []graph.ExtraUpdate) error {
	if err := w.gate(); err != nil {
		return err
	}
	return w.st.LogFixEdges(u)
}

func (w *stallStoreWAL) Snapshot(g *graph.Graph) error { return w.st.Snapshot(g) }

var replOpts = core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24}

type replicatedServer struct {
	ts     *httptest.Server
	s      *Server
	g      *shard.Group
	d      *dataset.Dataset
	stores []*persist.Store
	set    *replica.Set
	wal0   *stallStoreWAL
}

// newReplicatedTestServer wires the full failover deployment: a 2-shard
// leader whose stores feed one hot read replica per shard, the group
// hedging reads to those replicas, and the server exposing replication
// endpoints, replica stats, and replica metrics. Shard 0's WAL can be
// stalled or failed at will.
func newReplicatedTestServer(t testing.TB, after time.Duration) *replicatedServer {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "repl", N: 400, NHist: 80, NTest: 20,
		Dim: 8, Clusters: 5, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 7,
	})
	const n = 2
	stores, err := persist.OpenSharded(t.TempDir(), n, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := shard.Partition(d.Base, n)
	fixers := make([]*core.OnlineFixer, n)
	wal0 := newStallStoreWAL(stores[0])
	for i, p := range parts {
		var wal core.WAL = stores[i]
		if i == 0 {
			wal = wal0
		}
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
		ix := core.New(h.Bottom(), replOpts)
		fixers[i] = core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 1 << 20, WAL: wal})
	}
	g, err := shard.NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Snapshot(); err != nil {
		t.Fatal(err)
	}

	reps := make([]*replica.Replica, n)
	rr := make([]shard.ReadReplica, n)
	shardRegs := make([]*obs.Registry, n)
	for i := range reps {
		reps[i] = replica.New(replica.StoreSource{St: stores[i]}, replica.Config{
			Shard: i, Opts: replOpts,
			Poll: 2 * time.Millisecond, Backoff: time.Millisecond, Logf: t.Logf,
		})
		rr[i] = reps[i]
		shardRegs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		reps[i].RegisterMetrics(shardRegs[i])
	}
	set, err := replica.NewSet(reps)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); set.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	if err := g.SetReplicas(rr, shard.FailoverPolicy{After: after}); err != nil {
		t.Fatal(err)
	}

	s := NewSharded(g)
	s.SnapshotFunc = g.Snapshot
	s.SetStores(stores)
	s.Replicas = set
	s.EnableMetrics(obs.NewRegistry(), shardRegs...)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	// LIFO: the stall must release before ts.Close waits on in-flight
	// requests (see blockingWAL).
	t.Cleanup(wal0.unblock)

	waitForCond(t, "replicas ready", set.Ready)
	return &replicatedServer{ts: ts, s: s, g: g, d: d, stores: stores, set: set, wal0: wal0}
}

// TestFailoverEndToEnd is the acceptance scenario: shard 0's WAL freezes
// mid-append holding the write lock, so its primary cannot answer reads.
// The hedge must serve the query from the replica — answered fast,
// flagged stale, failover counted on /metrics and /v1/stats — and the
// primary must take reads back once unfrozen.
func TestFailoverEndToEnd(t *testing.T) {
	rs := newReplicatedTestServer(t, 10*time.Millisecond)

	// Healthy: fresh answers, replica block present and caught up.
	var sr SearchResponse
	if resp := post(t, rs.ts.URL+"/v1/search", SearchRequest{Vector: rs.d.TestOOD.Row(0), K: IntPtr(5), EF: IntPtr(40)}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if sr.Stale {
		t.Fatal("healthy search answered stale")
	}
	st := getStats(t, rs.ts.URL)
	if len(st.Replica) != 2 {
		t.Fatalf("stats replica block has %d entries, want 2", len(st.Replica))
	}
	for i, r := range st.Replica {
		if r.Shard != i || !r.Ready {
			t.Fatalf("replica %d status %+v", i, r)
		}
	}

	// Freeze shard 0: two concurrent inserts — round-robin lands one on
	// shard 0, where it blocks inside the WAL holding the write lock.
	rs.wal0.stall.Store(true)
	for i := 0; i < 2; i++ {
		go rs.g.Insert(rs.d.History.Row(i))
	}
	select {
	case <-rs.wal0.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("insert never reached the stalled WAL")
	}

	start := time.Now()
	sr = SearchResponse{}
	if resp := post(t, rs.ts.URL+"/v1/search", SearchRequest{Vector: rs.d.TestOOD.Row(1), K: IntPtr(5), EF: IntPtr(40)}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("search during freeze: status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("frozen-shard search took %v; the hedge should fire after ~10ms", elapsed)
	}
	if !sr.Stale {
		t.Fatal("frozen-shard search not flagged stale")
	}
	if len(sr.Results) == 0 {
		t.Fatal("frozen-shard search returned no results")
	}

	// The failover is visible on /metrics while the shard is still
	// frozen: the replica families are Func-backed atomics, so the scrape
	// never touches the wedged fixer's lock. (/v1/stats does — it reads
	// graph numbers under each fixer's lock — so it is checked after the
	// thaw.)
	samples := scrapeMetrics(t, rs.ts.URL)
	if v, ok := samples[`ngfix_replica_failovers_total{shard="0"}`]; !ok || v < 1 {
		t.Fatalf("ngfix_replica_failovers_total{shard=\"0\"} = %v (present %v), want >= 1", v, ok)
	}
	if v := samples[`ngfix_replica_failovers_total{shard="1"}`]; v != 0 {
		t.Fatalf("healthy shard counted %v failovers", v)
	}

	// Thaw: the blocked insert completes, reads return to the primary,
	// and the stats replica block remembers the failover.
	rs.wal0.stall.Store(false)
	rs.wal0.unblock()
	waitForCond(t, "fresh answers after thaw", func() bool {
		var out SearchResponse
		resp := post(t, rs.ts.URL+"/v1/search", SearchRequest{Vector: rs.d.TestOOD.Row(2), K: IntPtr(5), EF: IntPtr(40)}, &out)
		return resp.StatusCode == http.StatusOK && !out.Stale
	})
	if st := getStats(t, rs.ts.URL); st.Replica[0].Failovers < 1 {
		t.Fatalf("stats replica block missed the failover: %+v", st.Replica[0])
	}
}

func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	return samples
}

// TestReadyzCoveredByReplica pins the covered-degradation contract: a
// shard whose durability failed but whose reads a ready replica covers
// answers 200 with a "degraded, serving from replica" detail instead of
// going dark, and recovers to a plain ok after a successful snapshot.
func TestReadyzCoveredByReplica(t *testing.T) {
	rs := newReplicatedTestServer(t, 0)

	readyz := func() (int, string) {
		resp, err := http.Get(rs.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := readyz(); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthy readyz: %d %q", code, body)
	}

	// Trip shard 0's durability: the routed delete fails its journal
	// append, marking the shard degraded. The replica still covers reads.
	rs.wal0.fail.Store(true)
	if _, err := rs.g.Fixer(0).Delete(0); err == nil {
		t.Fatal("delete with failing WAL did not surface the journal error")
	}
	code, body := readyz()
	if code != http.StatusOK {
		t.Fatalf("covered degraded shard answered %d (%q), want 200 with detail", code, body)
	}
	if !strings.Contains(body, "degraded, serving from replica") || !strings.Contains(body, "[0]") {
		t.Fatalf("covered readyz detail missing: %q", body)
	}

	// Durability recovers via snapshot → plain ok again.
	rs.wal0.fail.Store(false)
	if err := rs.g.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(); code != http.StatusOK || strings.Contains(body, "degraded") {
		t.Fatalf("recovered readyz: %d %q", code, body)
	}
}

// TestReplicateEndpointsAndFollower drives the cross-machine deployment:
// a follower server whose per-shard replicas pull from the leader's
// /v1/replicate/* endpoints. It must converge to the leader's answers,
// flag everything stale, resync across a leader generation bump, and the
// wire protocol must answer 410 for rotated generations and 400/501 for
// bad requests.
func TestReplicateEndpointsAndFollower(t *testing.T) {
	rs := newReplicatedTestServer(t, 0)
	const n = 2

	reps := make([]*replica.Replica, n)
	regs := make([]*obs.Registry, n)
	for i := range reps {
		reps[i] = replica.New(replica.HTTPSource{Base: rs.ts.URL, Shard: i}, replica.Config{
			Shard: i, Opts: replOpts,
			Poll: 2 * time.Millisecond, Backoff: time.Millisecond, Logf: t.Logf,
		})
		regs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		reps[i].RegisterMetrics(regs[i])
	}
	set, err := replica.NewSet(reps)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); set.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	fol := NewFollower(set)
	fol.EnableMetrics(regs...)
	fts := httptest.NewServer(fol)
	t.Cleanup(fts.Close)

	caughtUp := func() bool {
		for i, r := range reps {
			ls := rs.stores[i].ReplicationStatus()
			st := r.Status()
			if !st.Ready || st.Generation != ls.Generation || st.AppliedBytes != ls.WALBytes {
				return false
			}
		}
		return true
	}

	// Mutations through the leader's public API...
	for i := 0; i < 4; i++ {
		if resp := post(t, rs.ts.URL+"/v1/insert", InsertRequest{Vector: rs.d.History.Row(i)}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert status %d", resp.StatusCode)
		}
	}
	waitForCond(t, "follower caught up over HTTP", caughtUp)

	// ...are visible through the follower, stale-flagged, and identical
	// to the leader's answer (bit-identical replicas merge identically).
	q := rs.d.TestOOD.Row(0)
	var want, got SearchResponse
	if resp := post(t, rs.ts.URL+"/v1/search", SearchRequest{Vector: q, K: IntPtr(5), EF: IntPtr(40)}, &want); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader search status %d", resp.StatusCode)
	}
	if resp := post(t, fts.URL+"/v1/search", SearchRequest{Vector: q, K: IntPtr(5), EF: IntPtr(40)}, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower search status %d", resp.StatusCode)
	}
	if !got.Stale {
		t.Fatal("follower answer not flagged stale")
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("follower returned %d results, leader %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("result %d: follower %+v, leader %+v", i, got.Results[i], want.Results[i])
		}
	}

	// Follower health surface: readyz ok, stats carries the replica
	// blocks, metrics expose the shard-labeled replica families.
	if resp, err := http.Get(fts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower readyz: %v %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	fresp, err := http.Get(fts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var fst FollowerStatsResponse
	if err := decodeBody(fresp, &fst); err != nil {
		t.Fatal(err)
	}
	if fst.Shards != n || !fst.Ready || len(fst.Replica) != n {
		t.Fatalf("follower stats %+v", fst)
	}
	samples := scrapeMetrics(t, fts.URL)
	for _, key := range []string{`ngfix_replica_ready{shard="0"}`, `ngfix_replica_ready{shard="1"}`} {
		if v, ok := samples[key]; !ok || v != 1 {
			t.Fatalf("follower metrics %s = %v (present %v), want 1", key, v, ok)
		}
	}

	// Mutations have no route on a follower.
	if resp := post(t, fts.URL+"/v1/insert", InsertRequest{Vector: q}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("follower insert status %d, want 404", resp.StatusCode)
	}

	// Leader generation bump mid-tail: the old WAL answers 410 on the
	// wire, and the follower resyncs and converges.
	oldGen := rs.stores[0].Generation()
	if resp := post(t, rs.ts.URL+"/v1/snapshot", struct{}{}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if resp := post(t, rs.ts.URL+"/v1/insert", InsertRequest{Vector: rs.d.History.Row(5)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-bump insert status %d", resp.StatusCode)
	}
	waitForCond(t, "follower resynced past generation bump", caughtUp)
	resynced := false
	for _, st := range set.Statuses() {
		if st.Resyncs > 0 {
			resynced = true
		}
	}
	if !resynced {
		t.Fatal("no replica recorded a resync across the generation bump")
	}
	goneURL := rs.ts.URL + "/v1/replicate/wal?shard=0&gen=" + strconv.FormatUint(oldGen, 10) + "&offset=0"
	if resp, err := http.Get(goneURL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("rotated generation answered %d, want 410", resp.StatusCode)
		}
	}

	// Wire validation: out-of-range shard → 400; snapshot carries the
	// generation header; a server without stores → 501.
	if resp, err := http.Get(rs.ts.URL + "/v1/replicate/status?shard=9"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad shard answered %d, want 400", resp.StatusCode)
		}
	}
	if resp, err := http.Get(rs.ts.URL + "/v1/replicate/snapshot?shard=0"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get(replica.GenerationHeader) == "" {
			t.Fatal("snapshot response missing generation header")
		}
	}
	plain, _ := newTestServer(t)
	if resp, err := http.Get(plain.URL + "/v1/replicate/status?shard=0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("storeless server answered %d, want 501", resp.StatusCode)
		}
	}
}

func decodeBody(resp *http.Response, out interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestStatsOmitsReplicaWithoutReplicas pins response-shape stability: a
// server with no replicas configured serves /v1/stats and /v1/search
// bodies byte-identical in shape to the pre-replication server — no
// "replica" block, no "stale" field — so existing dashboards and clients
// see nothing new until the operator opts in.
func TestStatsOmitsReplicaWithoutReplicas(t *testing.T) {
	ts, _, g, d := newShardedTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), `"replica"`) {
		t.Fatalf("stats body leaks a replica block with no replicas configured:\n%s", body)
	}
	if !g.HasReplicas() {
		var buf strings.Builder
		sresp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(3), EF: IntPtr(30)}, nil)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d", sresp.StatusCode)
		}
		if _, err := io.Copy(&buf, sresp.Body); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), `"stale"`) {
			t.Fatalf("search body leaks a stale field with no replicas configured:\n%s", buf.String())
		}
	}
}
