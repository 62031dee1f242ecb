package policy

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// testIndex builds a small fixed index plus the workload that queries it.
func testIndex(t *testing.T) (*core.Index, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "policy", N: 600, NHist: 200, NTest: 60,
		Dim: 8, Clusters: 6, Metric: vec.L2,
		GapMagnitude: 1.5, ClusterStd: 0.2, QueryStdScale: 1.5, Seed: 9,
	})
	h := hnsw.Build(d.Base, hnsw.Config{M: 8, EFConstruction: 60, Metric: vec.L2, Seed: 1})
	return core.New(h.Bottom(), core.Options{Rounds: []core.Round{{K: 15}}, LEx: 24}), d
}

func adaptiveUnderTest(t *testing.T, ix *core.Index) *Adaptive {
	t.Helper()
	return NewAdaptive(8, AdaptiveConfig{
		ReservoirSize: 64, MinSamples: 32, RecalEvery: 64,
		Buckets: 2, K: 5, Metric: vec.L2, Seed: 2,
	}, indexSearch(ix))
}

// indexSearch is the reference searcher calibration measures against.
func indexSearch(ix *core.Index) func(q []float32, k, ef int) []graph.Result {
	return func(q []float32, k, ef int) []graph.Result {
		res, _ := ix.Search(q, k, ef)
		return res
	}
}

func TestAdaptiveSelfCalibrates(t *testing.T) {
	ix, d := testIndex(t)
	a := adaptiveUnderTest(t, ix)

	if a.Ready() {
		t.Fatal("ready before any traffic")
	}
	if _, _, ok := a.EFFor(d.TestOOD.Row(0)); ok {
		t.Fatal("EFFor ok before calibration")
	}

	// Feed traffic until Record signals the first calibration is due.
	want := false
	fed := 0
	for i := 0; i < d.History.Rows() && !want; i++ {
		want = a.Record(d.History.Row(i))
		fed++
	}
	if !want {
		t.Fatalf("no calibration requested after %d queries (MinSamples 32)", fed)
	}
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("calibration did not run")
	}
	if !a.Ready() {
		t.Fatal("not ready after calibration")
	}
	ths, efs := a.Buckets()
	if len(efs) == 0 || len(ths) != len(efs)-1 {
		t.Fatalf("policy shape: thresholds=%v efs=%v", ths, efs)
	}

	allowed := map[int]bool{}
	for _, ef := range efs {
		allowed[ef] = true
	}
	ef, probe, ok := a.EFFor(d.TestOOD.Row(0))
	if !ok || !allowed[ef] || probe <= 0 {
		t.Fatalf("EFFor: ef=%d probe=%d ok=%v (allowed %v)", ef, probe, ok, efs)
	}
	if done, _ := a.Recalibrations(); done != 1 {
		t.Fatalf("recalibrations = %d, want 1", done)
	}
}

// TestAdaptiveDeferralWhenDenied: calibration gated by admission must
// step aside when the limiter says no, count the deferral, and leave the
// current policy serving.
func TestAdaptiveDeferralWhenDenied(t *testing.T) {
	ix, d := testIndex(t)
	a := adaptiveUnderTest(t, ix)
	for i := 0; i < 40; i++ {
		a.Record(d.History.Row(i))
	}
	deny := func() (func(), bool) { return nil, false }
	if a.MaybeRecalibrate(deny) {
		t.Fatal("calibration ran despite denied admission")
	}
	if a.Ready() {
		t.Fatal("denied calibration installed a policy")
	}
	if done, deferred := a.Recalibrations(); done != 0 || deferred != 1 {
		t.Fatalf("recals=%d deferrals=%d, want 0 and 1", done, deferred)
	}
	// Granted admission must release exactly once and complete.
	var released int
	grant := func() (func(), bool) { return func() { released++ }, true }
	if !a.MaybeRecalibrate(grant) {
		t.Fatal("granted calibration did not run")
	}
	if released != 1 {
		t.Fatalf("release called %d times, want 1", released)
	}
}

// TestAdaptiveConcurrentEFFor runs EFFor/Record from many goroutines
// while recalibrations swap the policy underneath and drift checks probe
// the ring through the pooled probers — the -race target for the
// wait-free serving path.
func TestAdaptiveConcurrentEFFor(t *testing.T) {
	ix, d := testIndex(t)
	a := adaptiveUnderTest(t, ix) // ReservoirSize 64
	const workers, perWorker = 8, 300
	stream := d.MoreQueries(40+workers*perWorker, true, 7)
	// A provisional policy fitted on 40 rows: the first pass below sees a
	// full ring and must refit (a swap); the traffic stays stationary, so
	// the passes after it are drift checks.
	feed(a, stream, 0, 40)
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("seed calibration failed")
	}

	var recorded atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Record until the passes are done, cycling this worker's own
			// rows so the ring never holds the same query twice.
			for i := 0; ; i++ {
				if i >= perWorker {
					select {
					case <-stop:
						return
					default:
					}
				}
				q := stream.Row(40 + w*perWorker + i%perWorker)
				if ef, _, ok := a.EFFor(q); ok && ef <= 0 {
					t.Errorf("EFFor returned non-positive ef %d", ef)
					return
				}
				a.Record(q)
				recorded.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for recorded.Load() < 64-40 {
			runtime.Gosched()
		}
		for i := 0; i < 5; i++ {
			a.MaybeRecalibrate(nil)
		}
	}()
	wg.Wait()
	if !a.Ready() {
		t.Fatal("policy lost under concurrency")
	}
	// Both a swap and a drift check raced EFFor and Record, and every
	// pass either refitted or counted a skip.
	done, _ := a.Recalibrations()
	if skips := a.RecalSkips(); done < 2 || skips < 1 || done+skips != 6 {
		t.Fatalf("recalibrations %d, skips %d: want at least 2 and 1, summing to 6", done, skips)
	}
}

func TestAdaptiveNilSafe(t *testing.T) {
	var a *Adaptive
	if a.Ready() || a.Record(nil) {
		t.Fatal("nil adaptive active")
	}
	if _, _, ok := a.EFFor(nil); ok {
		t.Fatal("nil EFFor ok")
	}
	if a.MaybeRecalibrate(nil) {
		t.Fatal("nil recalibrated")
	}
}

// driftUnderTest is the drift-gate configuration: a ring large enough
// that on stationary traffic the band shares sit well inside
// driftTolerance (about 0.03 off 1/2 on this index, against a
// tolerance of 0.16 at 2 bands and 256 rows).
func driftUnderTest(t *testing.T, ix *core.Index) *Adaptive {
	t.Helper()
	return NewAdaptive(8, AdaptiveConfig{
		ReservoirSize: 256, MinSamples: 64, RecalEvery: 256,
		Buckets: 2, K: 5, Metric: vec.L2, Seed: 2,
	}, indexSearch(ix))
}

// feed records rows [lo, hi) of m and returns the last Record's answer.
func feed(a *Adaptive, m *vec.Matrix, lo, hi int) (wantRecal bool) {
	for i := lo; i < hi; i++ {
		wantRecal = a.Record(m.Row(i))
	}
	return wantRecal
}

// wantCounts fails unless the policy has run done calibrations and
// skipped skips drift checks.
func wantCounts(t *testing.T, a *Adaptive, done, skips int64) {
	t.Helper()
	if got, _ := a.Recalibrations(); got != done || a.RecalSkips() != skips {
		t.Fatalf("recalibrations=%d skips=%d, want %d and %d", got, a.RecalSkips(), done, skips)
	}
}

// TestAdaptiveDriftGateSkipsStationary: once a policy is fitted on a
// full ring, fresh traffic from the same distribution keeps the band
// shares equal, so each check skips and the policy stays installed.
func TestAdaptiveDriftGateSkipsStationary(t *testing.T) {
	ix, d := testIndex(t)
	a := driftUnderTest(t, ix)
	stream := d.MoreQueries(4*256, true, 7)
	feed(a, stream, 0, 256)
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("full-ring calibration did not run")
	}
	before := a.cur.Load()
	for k := 1; k < 4; k++ {
		if !feed(a, stream, k*256, (k+1)*256) {
			t.Fatalf("check %d not requested after RecalEvery queries", k)
		}
		if a.MaybeRecalibrate(nil) {
			t.Fatalf("check %d recalibrated on stationary traffic", k)
		}
		wantCounts(t, a, 1, int64(k))
	}
	if a.cur.Load() != before {
		t.Fatal("a skipped check replaced the policy")
	}
}

// TestAdaptiveDriftGateRecalibratesOnDrift: traffic moving to the other
// modality (base-distribution queries, far from every historical OOD
// query) piles into the last band, so the next check refits — and the
// refitted policy then holds on more of the new traffic. (The dataset's
// History and TestOOD sets are drawn from the same modality, so a switch
// between those two is not drift.)
func TestAdaptiveDriftGateRecalibratesOnDrift(t *testing.T) {
	ix, d := testIndex(t)
	a := driftUnderTest(t, ix)
	feed(a, d.MoreQueries(256, true, 7), 0, 256)
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("full-ring calibration did not run")
	}
	drift := d.MoreQueries(2*256, false, 8)
	feed(a, drift, 0, 256)
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("drifted traffic did not recalibrate")
	}
	wantCounts(t, a, 2, 0)
	feed(a, drift, 256, 512)
	if a.MaybeRecalibrate(nil) {
		t.Fatal("refitted policy recalibrated again on the same traffic")
	}
	wantCounts(t, a, 2, 1)
}

// TestAdaptiveDriftGateBackstop: traffic that repeats exactly never
// moves the band shares, so only the backstop refits — after
// maxPassedChecks passed checks in a row, and then the count restarts.
func TestAdaptiveDriftGateBackstop(t *testing.T) {
	ix, d := testIndex(t)
	a := driftUnderTest(t, ix)
	stream := d.MoreQueries(256, true, 7)
	feed(a, stream, 0, 256)
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("full-ring calibration did not run")
	}
	for k := 1; k <= maxPassedChecks; k++ {
		feed(a, stream, 0, 256)
		if a.MaybeRecalibrate(nil) {
			t.Fatalf("check %d recalibrated before the backstop", k)
		}
	}
	wantCounts(t, a, 1, maxPassedChecks)
	feed(a, stream, 0, 256)
	if !a.MaybeRecalibrate(nil) {
		t.Fatalf("no recalibration after %d passed checks", maxPassedChecks)
	}
	wantCounts(t, a, 2, maxPassedChecks)
	feed(a, stream, 0, 256)
	if a.MaybeRecalibrate(nil) {
		t.Fatal("backstop did not restart its count")
	}
	wantCounts(t, a, 2, maxPassedChecks+1)
}

// TestAdaptiveProvisionalThenFullRing: the first calibration fires at
// MinSamples on a partial ring; that policy is provisional, so the first
// check after the ring fills refits even on stationary traffic, and only
// the full-ring policy earns skips.
func TestAdaptiveProvisionalThenFullRing(t *testing.T) {
	ix, d := testIndex(t)
	a := driftUnderTest(t, ix)
	stream := d.MoreQueries(64+192+2*256, true, 7)
	if !feed(a, stream, 0, 64) {
		t.Fatal("first calibration not requested at MinSamples")
	}
	if !a.MaybeRecalibrate(nil) {
		t.Fatal("provisional calibration did not run")
	}
	if feed(a, stream, 64, 256) {
		t.Fatal("check requested before RecalEvery queries")
	}
	if !feed(a, stream, 256, 320) || !a.MaybeRecalibrate(nil) {
		t.Fatal("provisional policy was not refitted on the full ring")
	}
	wantCounts(t, a, 2, 0)
	feed(a, stream, 320, 576)
	if a.MaybeRecalibrate(nil) {
		t.Fatal("full-ring policy recalibrated on stationary traffic")
	}
	wantCounts(t, a, 2, 1)
}

// TestAdaptiveRingKeepsNewest: once full, each record overwrites the
// oldest row, so the ring holds exactly the last ReservoirSize queries.
func TestAdaptiveRingKeepsNewest(t *testing.T) {
	ix, d := testIndex(t)
	a := adaptiveUnderTest(t, ix) // ReservoirSize 64
	stream := d.MoreQueries(150, true, 7)
	feed(a, stream, 0, 150)
	if a.ring.Rows() != 64 {
		t.Fatalf("ring rows = %d, want 64", a.ring.Rows())
	}
	for r := 150 - 64; r < 150; r++ {
		got, want := a.ring.Row(r%64), stream.Row(r)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("ring row %d does not hold query %d", r%64, r)
			}
		}
	}
}

// TestDriftToleranceScales: the tolerance is driftSigmas standard
// deviations of a band's share, so it shrinks as the ring grows and
// stays inside 1/B for many bands.
func TestDriftToleranceScales(t *testing.T) {
	if tol := driftTolerance(3, 512); tol < 0.1 || tol > 0.12 {
		t.Fatalf("default tolerance %.3f, want about 0.11", tol)
	}
	if small, large := driftTolerance(3, 128), driftTolerance(3, 512); math.Abs(small-2*large) > 1e-12 {
		t.Fatalf("tolerance at 128 rows %.4f, want twice %.4f at 512", small, large)
	}
	if tol := driftTolerance(8, 512); tol >= 1.0/8 {
		t.Fatalf("tolerance %.3f at 8 bands does not fit inside a band's share 0.125", tol)
	}
}
