package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

var errShardDisk = errors.New("injected disk failure")

// newShardedTestServer wires a 2-shard server the way production does:
// per-shard stores under shard-<i>/, per-shard registries carrying a
// shard="<i>" const label, one admission controller, merged /metrics.
func newShardedTestServer(t *testing.T) (*httptest.Server, *Server, *shard.Group, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "srv2", N: 500, NHist: 100, NTest: 30,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	const n = 2
	stores, err := persist.OpenSharded(t.TempDir(), n, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := shard.Partition(d.Base, n)
	fixers := make([]*core.OnlineFixer, n)
	shardRegs := make([]*obs.Registry, n)
	for i, p := range parts {
		shardRegs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		stores[i].RegisterMetrics(shardRegs[i])
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
		ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
		fixers[i] = core.NewOnlineFixer(ix, core.OnlineConfig{
			BatchSize: 50, PrepEF: 80, WAL: stores[i], Metrics: shardRegs[i],
		})
	}
	g, err := shard.NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s := NewSharded(g)
	s.SnapshotFunc = g.Snapshot
	s.Admission = admission.New(admission.Config{Capacity: 8})
	reg := obs.NewRegistry()
	s.EnableMetrics(reg, shardRegs...)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, g, d
}

// TestShardedServer is the HTTP layer's sharded integration test: the
// same API surface as the single-fixer server, but searches gather
// across shards, stats break down per shard, and every core/persist
// family on /metrics carries a shard label.
func TestShardedServer(t *testing.T) {
	ts, _, g, d := newShardedTestServer(t)

	var sr SearchResponse
	if resp := post(t, ts.URL+"/v1/search", SearchRequest{Vector: d.TestOOD.Row(0), K: IntPtr(5), EF: IntPtr(40)}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if len(sr.Results) != 5 {
		t.Fatalf("search returned %d results", len(sr.Results))
	}

	// Inserts land on alternating shards and ack with global ids that
	// continue the dense sequence.
	start := g.Len()
	for i := 0; i < 2; i++ {
		var ins InsertResponse
		if resp := post(t, ts.URL+"/v1/insert", InsertRequest{Vector: d.TestOOD.Row(i)}, &ins); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert status %d", resp.StatusCode)
		}
		if int(ins.ID) != start+i {
			t.Fatalf("insert id %d, want %d", ins.ID, start+i)
		}
	}
	var del DeleteResponse
	if resp := post(t, ts.URL+"/v1/delete", DeleteRequest{ID: uint32(start)}, &del); resp.StatusCode != http.StatusOK || !del.Deleted {
		t.Fatalf("delete: status %d deleted %v", resp.StatusCode, del.Deleted)
	}
	if resp := post(t, ts.URL+"/v1/delete", DeleteRequest{ID: 1 << 30}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-id delete status %d, want 404", resp.StatusCode)
	}
	var fix FixResponse
	if resp := post(t, ts.URL+"/v1/fix", struct{}{}, &fix); resp.StatusCode != http.StatusOK {
		t.Fatalf("fix status %d", resp.StatusCode)
	}
	if fix.Queries != 2 { // both shards recorded the one search
		t.Fatalf("fix consumed %d queries, want 2", fix.Queries)
	}

	// Stats: aggregate plus per-shard breakdown that sums to it.
	st := getStats(t, ts.URL)
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("stats shards=%d perShard=%d", st.Shards, len(st.PerShard))
	}
	sumVec, sumLive := 0, 0
	for i, p := range st.PerShard {
		if p.Shard != i {
			t.Fatalf("perShard[%d].Shard = %d", i, p.Shard)
		}
		sumVec += p.Vectors
		sumLive += p.Live
	}
	if sumVec != st.Vectors || sumLive != st.Live {
		t.Fatalf("per-shard sums %d/%d, aggregate %d/%d", sumVec, sumLive, st.Vectors, st.Live)
	}

	// Metrics: one valid merged exposition; fixer and store families
	// appear once per shard under distinct shard labels; admission is
	// shard="all"; HTTP-layer families stay unlabeled.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, body)
	}
	for _, key := range []string{
		`ngfix_fix_batches_total{shard="0"}`,
		`ngfix_fix_batches_total{shard="1"}`,
		`ngfix_vectors{shard="0"}`,
		`ngfix_vectors{shard="1"}`,
		`ngfix_wal_snapshot_seconds_count{shard="0"}`,
		`ngfix_wal_snapshot_seconds_count{shard="1"}`,
		`ngfix_admission_admitted_total{shard="all"}`,
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
	if _, ok := samples[`ngfix_search_duration_seconds_count{outcome="ok"}`]; !ok {
		t.Error("HTTP-layer search duration family missing")
	}
	if strings.Count(string(body), "# TYPE ngfix_fix_batches_total ") != 1 {
		t.Error("merged exposition repeats the TYPE line for a cross-shard family")
	}
}

// faultyWAL fails every append and snapshot — the degraded-shard seam.
type faultyWAL struct{ err error }

func (w faultyWAL) LogInsert(v []float32) error             { return w.err }
func (w faultyWAL) LogDelete(id uint32) error               { return w.err }
func (w faultyWAL) LogFixEdges(u []graph.ExtraUpdate) error { return w.err }
func (w faultyWAL) Snapshot(g *graph.Graph) error           { return w.err }

// TestShardedReadyzNamesDegradedShard pins per-shard readiness: when
// one shard's durability fails, /readyz turns 503 and says which shard
// — the others' health does not mask it, and an operator reading the
// probe knows where to look.
func TestShardedReadyzNamesDegradedShard(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "rdz", N: 200, NHist: 20, NTest: 5,
		Dim: 8, Clusters: 4, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 3,
	})
	parts := shard.Partition(d.Base, 2)
	fixers := make([]*core.OnlineFixer, 2)
	for i, p := range parts {
		cfg := core.OnlineConfig{BatchSize: 50, PrepEF: 60}
		if i == 1 {
			cfg.WAL = faultyWAL{err: errShardDisk}
		}
		h := hnsw.Build(p, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
		ix := core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24})
		fixers[i] = core.NewOnlineFixer(ix, cfg)
	}
	g, err := shard.NewGroup(fixers)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(g)
	s.SetReady(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz before degradation: %d", resp.StatusCode)
		}
	}

	// Trip shard 1's durability with a routed mutation (the 500 marks
	// the at-risk write); shard 0 stays healthy.
	if changed, err := g.Fixer(1).Delete(0); err == nil || !changed {
		t.Fatalf("shard-1 delete: changed=%v err=%v, want journal failure", changed, err)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with degraded shard: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "shard(s) [1]") {
		t.Fatalf("readyz does not name the degraded shard: %s", body)
	}
}
