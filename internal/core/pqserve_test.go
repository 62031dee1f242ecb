package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"ngfix/internal/bruteforce"
	"ngfix/internal/graph"
	"ngfix/internal/pq"
	"ngfix/internal/vec"
)

// TestEnablePQServesCompressed pins the fused serving contract: with PQ
// on, navigation happens in the compressed domain (ADCLookups carries the
// beam's work), exact distances are paid only for the bounded rerank
// pool, recall stays close to the uncompressed path, and the resident
// accounting shows the compression.
func TestEnablePQServesCompressed(t *testing.T) {
	d, g := testWorkload(t)
	plain := NewOnlineFixer(New(g.Clone(), Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	fused := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	if err := fused.EnablePQ(PQConfig{KS: 64}); err != nil {
		t.Fatal(err)
	}
	if err := fused.EnablePQ(PQConfig{KS: 64}); !errors.Is(err, ErrPQEnabled) {
		t.Fatalf("double enable = %v, want ErrPQEnabled", err)
	}

	k, ef := 10, 40
	_, st := fused.Search(d.TestOOD.Row(0), k, ef)
	if st.ADCLookups == 0 {
		t.Fatal("fused search reported no ADC lookups")
	}
	if st.NDC == 0 || st.NDC > int64(4*k) {
		t.Fatalf("rerank NDC = %d, want in (0, %d]", st.NDC, 4*k)
	}
	if st.ADCLookups <= st.NDC {
		t.Fatalf("ADC lookups (%d) should dominate rerank NDC (%d)", st.ADCLookups, st.NDC)
	}

	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, k)
	pr := meanRecall(t, plain.Search, d.TestOOD, gt, k, ef)
	fr := meanRecall(t, fused.Search, d.TestOOD, gt, k, ef)
	if fr < pr-0.08 {
		t.Fatalf("fused recall %.3f fell more than 8pts below uncompressed %.3f", fr, pr)
	}

	ps, ok := fused.PQStats()
	if !ok || !ps.Enabled {
		t.Fatal("PQStats not enabled after EnablePQ")
	}
	if ps.Searches == 0 || ps.ADCLookups == 0 || ps.RerankNDC == 0 {
		t.Fatalf("served counters empty: %+v", ps)
	}
	if ps.ResidentBytes >= ps.FullVectorBytes {
		t.Fatalf("compressed resident %d not below full vectors %d", ps.ResidentBytes, ps.FullVectorBytes)
	}
	if _, ok := plain.PQStats(); ok {
		t.Fatal("plain fixer reports PQ stats")
	}

	// Tombstones must stay navigable but never surface.
	del := gt[1][0].ID
	if changed, _ := fused.Delete(del); !changed {
		t.Fatal("delete failed")
	}
	res, _ := fused.Search(d.TestOOD.Row(1), k, ef)
	for _, r := range res {
		if r.ID == del {
			t.Fatal("fused search surfaced a tombstone")
		}
	}
}

// TestPQInsertEncodesIncrementally pins encode-on-insert: a vector added
// while PQ serving is live becomes findable through the fused path, and
// the code array tracks the graph row count exactly.
func TestPQInsertEncodesIncrementally(t *testing.T) {
	d, g := testWorkload(t)
	o := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	if err := o.EnablePQ(PQConfig{KS: 32}); err != nil {
		t.Fatal(err)
	}
	before, _ := o.PQStats()

	v := d.TestOOD.Row(3)
	id, err := o.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := o.PQStats()
	if after.CodeBytes != before.CodeBytes+int64(after.M) {
		t.Fatalf("codes grew %d bytes, want %d (one row)", after.CodeBytes-before.CodeBytes, after.M)
	}
	if o.pqs.q.Rows() != o.ix.G.Len() {
		t.Fatalf("quantizer rows %d out of step with graph %d", o.pqs.q.Rows(), o.ix.G.Len())
	}
	res, _ := o.Search(v, 1, 40)
	if len(res) == 0 || res[0].ID != id {
		t.Fatalf("fused search did not find the inserted vector (got %+v, want id %d)", res, id)
	}
}

// TestPooledSearchersSurviveInserts: mutations no longer reset the
// searcher pools, so a searcher pooled before 100 inserts must answer
// exactly as a fresh one after them, on the full-precision and the
// fused PQ path — including queries near the inserted rows, which lie
// beyond the graph size the old searchers were built at.
func TestPooledSearchersSurviveInserts(t *testing.T) {
	d, g := testWorkload(t)
	plain := NewOnlineFixer(New(g.Clone(), Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	fused := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	if err := fused.EnablePQ(PQConfig{KS: 32}); err != nil {
		t.Fatal(err)
	}
	const k, ef = 10, 40
	oldFull := plain.searchers.Get().(*graph.Searcher)
	oldPQ := fused.pqs.searchers.Get().(*pq.GraphSearcher)
	oldFull.Search(d.TestOOD.Row(0), k, ef)
	oldPQ.Search(d.TestOOD.Row(0), k, ef)
	n0 := plain.Len()

	ins := d.MoreQueries(100, true, 5)
	for i := 0; i < ins.Rows(); i++ {
		if _, err := plain.Insert(ins.Row(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := fused.Insert(ins.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	freshFull := graph.NewSearcher(plain.ix.G)
	freshPQ := fused.newPQSearcher().(*pq.GraphSearcher)

	same := func(path string, qi int, a, b []graph.Result) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s query %d: pooled %d results, fresh %d", path, qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s query %d rank %d: pooled %+v, fresh %+v", path, qi, i, a[i], b[i])
			}
		}
	}
	reachedNew := 0
	for qi := 0; qi < ins.Rows(); qi++ {
		q := ins.Row(qi)
		a, _ := oldFull.Search(q, k, ef)
		b, _ := freshFull.Search(q, k, ef)
		same("full", qi, a, b)
		a, _ = oldPQ.Search(q, k, ef)
		b, _ = freshPQ.Search(q, k, ef)
		same("pq", qi, a, b)
		for _, r := range a {
			if int(r.ID) >= n0 {
				reachedNew++
				break
			}
		}
	}
	if reachedNew == 0 {
		t.Fatal("no search reached an inserted row")
	}
}

// TestPQFixesOnCompressedGraph pins that fix batches run their truth
// preprocessing through the fused searchers: the batch repairs the graph
// and its navigation work lands in the ADC counter.
func TestPQFixesOnCompressedGraph(t *testing.T) {
	d, g := testWorkload(t)
	o := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 20}, {K: 10}}, LEx: 32}), OnlineConfig{BatchSize: 64})
	if err := o.EnablePQ(PQConfig{KS: 32}); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 30; qi++ {
		o.Search(d.History.Row(qi), 10, 30)
	}
	mid, _ := o.PQStats()
	rep, _ := o.FixPending(0)
	if rep.Queries != 30 {
		t.Fatalf("fixed %d queries, want 30", rep.Queries)
	}
	after, _ := o.PQStats()
	if after.ADCLookups <= mid.ADCLookups {
		t.Fatal("fix preprocessing did not run through the compressed searchers")
	}
	// Serving still works against the repaired graph.
	if res, _ := o.Search(d.TestOOD.Row(0), 10, 40); len(res) != 10 {
		t.Fatalf("post-fix fused search returned %d results", len(res))
	}
}

// TestAttachPQRecoveryEquivalence pins the replay-don't-re-encode rule at
// the fixer level: persist the quantizer (codec round trip standing in
// for the sidecar), apply more inserts, then attach the persisted
// quantizer to an identical recovered graph. The recovered fixer must
// re-encode exactly the replayed tail and serve bit-identical results.
func TestAttachPQRecoveryEquivalence(t *testing.T) {
	d, g := testWorkload(t)
	live := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	if err := live.EnablePQ(PQConfig{KS: 32}); err != nil {
		t.Fatal(err)
	}
	// "Snapshot": the sidecar payload as persist would frame it.
	var sidecar bytes.Buffer
	if err := live.pqs.q.Encode(&sidecar); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot traffic the WAL would replay.
	for i := 0; i < 5; i++ {
		live.Insert(d.TestOOD.Row(i))
	}

	// "Recovery": identical graph (snapshot+replay yields the same rows),
	// persisted quantizer missing the replayed tail.
	rq, err := pq.ReadQuantizer(&sidecar)
	if err != nil {
		t.Fatal(err)
	}
	recovered := NewOnlineFixer(New(live.ix.G.Clone(), Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	if rq.Rows() >= recovered.ix.G.Len() {
		t.Fatal("test setup: sidecar should predate the replayed inserts")
	}
	if err := recovered.AttachPQ(rq, PQConfig{KS: 32}); err != nil {
		t.Fatal(err)
	}
	if rq.Rows() != recovered.ix.G.Len() {
		t.Fatalf("attach did not re-encode the tail: %d codes, %d rows", rq.Rows(), recovered.ix.G.Len())
	}
	for i := 0; i < live.pqs.q.Rows(); i++ {
		if !bytes.Equal(live.pqs.q.Code(i), rq.Code(i)) {
			t.Fatalf("row %d codes differ between live and recovered fixer", i)
		}
	}
	for qi := 0; qi < d.TestOOD.Rows(); qi++ {
		a, _ := live.Search(d.TestOOD.Row(qi), 10, 40)
		b, _ := recovered.Search(d.TestOOD.Row(qi), 10, 40)
		if len(a) != len(b) {
			t.Fatalf("query %d: result counts differ", qi)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d result %d: %+v vs %+v", qi, j, a[j], b[j])
			}
		}
	}
}

// TestAttachPQRejectsMismatch pins the guards: a sidecar that cannot
// describe the recovered graph is refused (callers then retrain).
func TestAttachPQRejectsMismatch(t *testing.T) {
	_, g := testWorkload(t)
	o := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})

	wrongDim := randTestMatrix(60, g.Dim()*2, 5)
	qd, err := pq.Train(wrongDim, pq.Config{M: 4, KS: 16, Iters: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AttachPQ(qd, PQConfig{}); err == nil {
		t.Fatal("wrong-dim quantizer accepted")
	}

	// More codes than graph rows: trained on a longer matrix.
	long := randTestMatrix(g.Len()+10, g.Dim(), 6)
	ql, err := pq.Train(long, pq.Config{M: 4, KS: 16, Iters: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AttachPQ(ql, PQConfig{}); err == nil {
		t.Fatal("oversized quantizer accepted")
	}
	if _, ok := o.PQStats(); ok {
		t.Fatal("rejected attach left PQ state behind")
	}
}

// TestPQTierRerank pins the demoted rerank tier: with TierPath set the
// fused path reranks from the mmap'd file, inserts land in the in-heap
// tail, and resident accounting reflects only the tail.
func TestPQTierRerank(t *testing.T) {
	d, g := testWorkload(t)
	o := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 10}}, LEx: 32}), OnlineConfig{})
	tierPath := filepath.Join(t.TempDir(), "vectors.tier")
	if err := o.EnablePQ(PQConfig{KS: 64, TierPath: tierPath}); err != nil {
		t.Fatal(err)
	}
	defer o.ClosePQ()

	k, ef := 10, 40
	gt := bruteforce.AllKNN(d.Base, d.TestOOD, vec.L2, k)
	if r := meanRecall(t, o.Search, d.TestOOD, gt, k, ef); r < 0.5 {
		t.Fatalf("tiered fused recall %.3f implausibly low", r)
	}
	ps, _ := o.PQStats()
	if ps.TierResidentBytes != 0 {
		t.Fatalf("mapped tier reports %d resident bytes before any insert", ps.TierResidentBytes)
	}

	v := d.TestOOD.Row(7)
	id, err := o.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := o.Search(v, 1, ef)
	if len(res) == 0 || res[0].ID != id {
		t.Fatal("tiered search did not find a post-tier insert")
	}
	ps, _ = o.PQStats()
	if want := int64(g.Dim() * 4); ps.TierResidentBytes != want {
		t.Fatalf("tier tail resident %d, want %d (one row)", ps.TierResidentBytes, want)
	}
}

func randTestMatrix(rows, dim int, seed int64) *vec.Matrix {
	m := vec.NewMatrix(0, dim)
	row := make([]float32, dim)
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < rows; i++ {
		for j := range row {
			state = state*2862933555777941757 + 3037000493
			row[j] = float32(state>>40) / float32(1<<24)
		}
		m.Append(row)
	}
	return m
}
