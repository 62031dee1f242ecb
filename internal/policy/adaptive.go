package policy

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/vec"
)

// AdaptiveConfig controls the serving-path adaptive-ef policy.
type AdaptiveConfig struct {
	// ReservoirSize is how many of the most recently recorded queries
	// the ring keeps as the calibration corpus (default 512).
	ReservoirSize int
	// MinSamples is the ring depth required before the first
	// calibration (default ReservoirSize/4).
	MinSamples int
	// RecalEvery triggers a drift check (and, on drift, a
	// recalibration) after this many recorded queries since the last
	// check (default ReservoirSize).
	RecalEvery int
	// TargetRecall is the per-band recall calibration aims for against
	// the wide-ef reference answer (default 0.95).
	TargetRecall float64
	// Buckets is the number of similarity bands (default 3).
	Buckets int
	// CandidateEFs are the ef values a band may be assigned, ascending
	// (default K..200 step 30).
	CandidateEFs []int
	// K is the result size recall is measured at (default 10).
	K int
	// ProbeEF is the search-list width of the similarity probe
	// (default 16).
	ProbeEF int
	// TruthEF is the search-list width used to compute the reference
	// answers calibration measures recall against (default 2× the
	// largest candidate).
	TruthEF int
	// Metric is the vector space's metric (for the historical-query
	// index).
	Metric vec.Metric
	// Seed drives the deterministic history/calibration split.
	Seed int64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 512
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.ReservoirSize / 4
	}
	if c.MinSamples < 16 {
		c.MinSamples = 16
	}
	if c.RecalEvery <= 0 {
		c.RecalEvery = c.ReservoirSize
	}
	if c.TargetRecall == 0 {
		c.TargetRecall = 0.95
	}
	if c.Buckets <= 0 {
		c.Buckets = 3
	}
	if c.K <= 0 {
		c.K = 10
	}
	if len(c.CandidateEFs) == 0 {
		c.CandidateEFs = metrics.DefaultEFs(c.K, 30, 200)
	}
	if c.ProbeEF <= 0 {
		c.ProbeEF = 16
	}
	if c.TruthEF <= 0 {
		c.TruthEF = 2 * c.CandidateEFs[len(c.CandidateEFs)-1]
	}
	return c
}

// The drift gate. Bands are cut equal-count, so on stationary traffic
// each of B bands holds about p = 1/B of the ring. A band's share is
// off from p by sampling noise of variance p(1-p)/rows from probing the
// ring plus p(1-p)/(rows/2) from the thresholds having been cut on the
// calibration half; driftTolerance allows driftSigmas standard
// deviations of it (about 0.11 at the defaults, B=3 and 512 rows).
// maxPassedChecks is the backstop: graph repair and churn change the ef
// a band needs without moving the probe distances, so a policy is
// refitted after this many passed checks in a row regardless.
const (
	driftSigmas     = 3
	maxPassedChecks = 16
)

func driftTolerance(bands, rows int) float64 {
	p := 1 / float64(bands)
	return driftSigmas * math.Sqrt(3*p*(1-p)/float64(rows))
}

// calibrated pairs an immutable policy with a pool of probers over its
// historical-query graph, so any number of request goroutines classify
// queries concurrently. Swapped wholesale on recalibration.
type calibrated struct {
	pol     *core.AdaptiveEF
	probers sync.Pool
	// fullRing records that the policy was fitted on a full ring; one
	// fitted on a partial ring is provisional and always refitted at
	// the next check.
	fullRing bool
}

// drifted probes every row of corpus through the policy and reports
// whether some band's share is off from 1/B by more than driftTolerance.
// Only a policy fitted on a full ring is checked, so the calibration
// half it was cut on held corpus.Rows()/2 rows.
func (c *calibrated) drifted(corpus *vec.Matrix) bool {
	ths, _ := c.pol.Buckets()
	counts := make([]int, len(ths)+1)
	s := c.probers.Get().(*graph.Searcher)
	for i := 0; i < corpus.Rows(); i++ {
		d := c.pol.ProbeDistWith(s, corpus.Row(i))
		// The band efForDist picks: the first threshold d does not exceed.
		counts[sort.Search(len(ths), func(j int) bool { return d <= ths[j] })]++
	}
	c.probers.Put(s)
	want := 1 / float64(len(counts))
	tol := driftTolerance(len(counts), corpus.Rows())
	for _, n := range counts {
		if math.Abs(float64(n)/float64(corpus.Rows())-want) > tol {
			return true
		}
	}
	return false
}

// Adaptive picks a per-query ef by probing the query's distance to the
// nearest recently-served query (the paper's §7 "Query Similarities"
// observation: ef needed for a target recall tracks similarity to the
// historical workload). It self-calibrates from live traffic: served
// queries feed a ring of the most recent ReservoirSize; a calibration
// splits the ring into history and calibration halves, indexes the
// history half with a small HNSW, and gives each similarity band the
// smallest candidate ef reaching the recall target against a wide-ef
// reference answer. Refits are paid on drift, not on a clock (see
// MaybeRecalibrate).
//
// EFFor is wait-free against recalibration (atomic policy pointer);
// Record takes a small mutex around the ring only.
type Adaptive struct {
	cfg AdaptiveConfig

	// search computes reference answers during calibration. It must be
	// safe for concurrent use and bypass admission (the caller gates
	// calibration with TryAcquire instead).
	search func(q []float32, k, ef int) []graph.Result

	mu       sync.Mutex
	ring     *vec.Matrix
	next     int // ring row the next record overwrites once full
	sinceCal int

	// rng (the history/calibration split) and passed (drift checks
	// passed in a row) are touched only by the one MaybeRecalibrate
	// that holds calibrating.
	rng    *rand.Rand
	passed int

	cur         atomic.Pointer[calibrated]
	calibrating atomic.Bool
	recals      atomic.Int64
	deferrals   atomic.Int64
	skips       atomic.Int64
}

// NewAdaptive builds the policy. dim is the query dimensionality;
// search is the concurrent-safe reference searcher (typically the shard
// group's scatter-gather search).
func NewAdaptive(dim int, cfg AdaptiveConfig, search func(q []float32, k, ef int) []graph.Result) *Adaptive {
	c := cfg.withDefaults()
	return &Adaptive{
		cfg:    c,
		search: search,
		ring:   vec.NewMatrix(0, dim),
		rng:    rand.New(rand.NewSource(c.Seed)),
	}
}

// Ready reports whether a calibrated policy is installed.
func (a *Adaptive) Ready() bool { return a != nil && a.cur.Load() != nil }

// EFFor returns the calibrated ef for q plus the probe's NDC cost.
// ok is false until the first calibration lands (callers fall back to
// the request's ef). Safe for any number of concurrent callers.
func (a *Adaptive) EFFor(q []float32) (ef, probeNDC int, ok bool) {
	if a == nil {
		return 0, 0, false
	}
	c := a.cur.Load()
	if c == nil {
		return 0, 0, false
	}
	s := c.probers.Get().(*graph.Searcher)
	ef = c.pol.EFForWith(s, q)
	c.probers.Put(s)
	return ef, c.pol.ProbeEF(), true
}

// Buckets exposes the current policy's bands (nil until calibrated).
func (a *Adaptive) Buckets() (thresholds []float32, efs []int) {
	if a == nil {
		return nil, nil
	}
	c := a.cur.Load()
	if c == nil {
		return nil, nil
	}
	return c.pol.Buckets()
}

// Recalibrations returns how many calibrations have completed and how
// many were deferred because admission denied the background units.
func (a *Adaptive) Recalibrations() (done, deferred int64) {
	if a == nil {
		return 0, 0
	}
	return a.recals.Load(), a.deferrals.Load()
}

// RecalSkips returns how many drift checks found the bands still
// equal-count and skipped the recalibration.
func (a *Adaptive) RecalSkips() int64 {
	if a == nil {
		return 0
	}
	return a.skips.Load()
}

// Record feeds one served query into the ring (overwriting the oldest
// row once full). It returns true when enough new traffic has
// accumulated that the caller should schedule MaybeRecalibrate.
func (a *Adaptive) Record(q []float32) (wantRecal bool) {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ring.Rows() < a.cfg.ReservoirSize {
		a.ring.Append(q)
	} else {
		copy(a.ring.Row(a.next), q)
		a.next = (a.next + 1) % a.cfg.ReservoirSize
	}
	a.sinceCal++
	if a.ring.Rows() < a.cfg.MinSamples {
		return false
	}
	if a.cur.Load() == nil {
		// First calibration: fire as soon as the floor is met.
		return !a.calibrating.Load()
	}
	return a.sinceCal >= a.cfg.RecalEvery && !a.calibrating.Load()
}

// MaybeRecalibrate runs one drift check, and on drift one calibration
// pass, if none is in flight. It reports whether a new policy was
// installed. A policy fitted on a full ring is kept (the check counts a
// skip) while its band shares hold and fewer than maxPassedChecks checks
// have passed in a row. acquire gates the background work on admission
// (nil means ungated); when it returns ok=false the pass is deferred —
// counters note it and the next Record past the threshold re-triggers.
// Intended to run on a background goroutine; EFFor keeps serving the
// old policy throughout.
func (a *Adaptive) MaybeRecalibrate(acquire func() (release func(), ok bool)) bool {
	if a == nil || !a.calibrating.CompareAndSwap(false, true) {
		return false
	}
	defer a.calibrating.Store(false)

	if acquire != nil {
		release, ok := acquire()
		if !ok {
			a.deferrals.Add(1)
			return false
		}
		defer release()
	}

	a.mu.Lock()
	rows := a.ring.Rows()
	if rows < a.cfg.MinSamples {
		a.mu.Unlock()
		return false
	}
	corpus := a.ring.Clone()
	a.sinceCal = 0
	a.mu.Unlock()

	if c := a.cur.Load(); c != nil && c.fullRing && a.passed < maxPassedChecks && !c.drifted(corpus) {
		a.passed++
		a.skips.Add(1)
		return false
	}

	// Deterministic shuffle for the history/calibration split.
	perm := a.rng.Perm(rows)

	half := rows / 2
	hist := vec.NewMatrix(0, corpus.Dim())
	calib := vec.NewMatrix(0, corpus.Dim())
	for i, p := range perm {
		if i < half {
			hist.Append(corpus.Row(p))
		} else {
			calib.Append(corpus.Row(p))
		}
	}

	pol := a.calibrate(hist, calib)
	if pol == nil {
		return false
	}
	c := &calibrated{pol: pol, fullRing: rows == a.cfg.ReservoirSize}
	g := pol.HistGraph()
	c.probers.New = func() interface{} { return graph.NewSearcher(g) }
	a.cur.Store(c)
	a.passed = 0
	a.recals.Add(1)
	return true
}

// calibrate fits equal-count similarity bands on the calibration half
// against reference answers from the wide-ef search — the serving-path
// analogue of core.CalibrateAdaptiveEF, using the concurrent group
// search for truth instead of a single-fixer searcher.
func (a *Adaptive) calibrate(hist, calib *vec.Matrix) *core.AdaptiveEF {
	if hist.Rows() == 0 || calib.Rows() == 0 {
		return nil
	}
	h := hnsw.Build(hist.Clone(), hnsw.Config{M: 8, EFConstruction: 60, Metric: a.cfg.Metric, Seed: 3})
	probe := core.NewAdaptiveEF(h.Bottom(), a.cfg.ProbeEF, nil, []int{0})
	prober := graph.NewSearcher(probe.HistGraph())

	nq := calib.Rows()
	type qd struct {
		qi int
		d  float32
	}
	ds := make([]qd, nq)
	for qi := 0; qi < nq; qi++ {
		ds[qi] = qd{qi, probe.ProbeDistWith(prober, calib.Row(qi))}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })

	truth := make([][]uint32, nq)
	for qi := 0; qi < nq; qi++ {
		truth[qi] = graph.IDs(a.search(calib.Row(qi), a.cfg.K, a.cfg.TruthEF))
	}

	var thresholds []float32
	var efs []int
	for b := 0; b < a.cfg.Buckets; b++ {
		lo := b * nq / a.cfg.Buckets
		hi := (b + 1) * nq / a.cfg.Buckets
		if lo >= hi {
			continue
		}
		chosen := a.cfg.CandidateEFs[len(a.cfg.CandidateEFs)-1]
		for _, ef := range a.cfg.CandidateEFs {
			var sum float64
			for _, x := range ds[lo:hi] {
				got := graph.IDs(a.search(calib.Row(x.qi), a.cfg.K, ef))
				sum += metrics.Recall(got, truth[x.qi])
			}
			if sum/float64(hi-lo) >= a.cfg.TargetRecall {
				chosen = ef
				break
			}
		}
		efs = append(efs, chosen)
		if b < a.cfg.Buckets-1 && len(thresholds) < a.cfg.Buckets-1 {
			thresholds = append(thresholds, ds[hi-1].d)
		}
	}
	if len(efs) == 0 {
		return nil
	}
	// Bands can collapse when nq < Buckets: keep thresholds consistent.
	thresholds = thresholds[:len(efs)-1]
	return core.NewAdaptiveEF(h.Bottom(), a.cfg.ProbeEF, thresholds, efs)
}
