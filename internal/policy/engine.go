package policy

import (
	"ngfix/internal/obs"
	"ngfix/internal/vec"
)

// Attribution values for the slow-query log's policy= field and the
// search response. Precedence when several apply: cache_hit (the
// search never ran) > adaptive_ef (the policy chose the ef) >
// augmented (the query fed synthetic repair signal) > none.
const (
	AttrNone       = "none"
	AttrAdaptiveEF = "adaptive_ef"
	AttrCacheHit   = "cache_hit"
	AttrAugmented  = "augmented"
)

// Engine is the serving-path facade over the three §7 policies. Any of
// the components may be nil (that policy is off); a nil *Engine means
// no policy is configured at all and every method is a cheap no-op, so
// the server wires exactly one code path.
type Engine struct {
	cache     *Cache
	adaptive  *Adaptive
	augmenter *Augmenter

	// sink hands synthetic queries to the fixers (shard.Group's
	// headroom-guarded fan-out); acquire gates recalibration work on
	// admission so calibration searches never compete with traffic.
	sink    func(*vec.Matrix) int
	acquire func() (release func(), ok bool)

	efChosen *obs.Histogram
}

// NewEngine assembles an engine. Returns nil when every policy is off.
func NewEngine(cache *Cache, adaptive *Adaptive, augmenter *Augmenter, sink func(*vec.Matrix) int, acquire func() (release func(), ok bool)) *Engine {
	if cache == nil && adaptive == nil && augmenter == nil {
		return nil
	}
	if sink == nil {
		sink = func(*vec.Matrix) int { return 0 }
	}
	return &Engine{
		cache:     cache,
		adaptive:  adaptive,
		augmenter: augmenter,
		sink:      sink,
		acquire:   acquire,
	}
}

// Cache returns the engine's answer cache (nil when off). All *Cache
// methods are nil-safe, so callers can use the result unconditionally.
func (e *Engine) Cache() *Cache {
	if e == nil {
		return nil
	}
	return e.cache
}

// Adaptive returns the engine's adaptive-ef policy (nil when off).
func (e *Engine) Adaptive() *Adaptive {
	if e == nil {
		return nil
	}
	return e.adaptive
}

// Augmenter returns the engine's augmenter (nil when off).
func (e *Engine) Augmenter() *Augmenter {
	if e == nil {
		return nil
	}
	return e.augmenter
}

// ShapeEF applies adaptive ef to one request before admission costing.
// explicit says the client set ef themselves: an explicit ef is a
// ceiling the policy may lower but never raise (the client asked for
// at most that much work); an omitted ef (server default) is replaced
// outright. Returns the ef to cost and search with, the probe's NDC
// (added to the request's stats), and whether adaptive chose it.
func (e *Engine) ShapeEF(q []float32, requested int, explicit bool) (ef, probeNDC int, adaptive bool) {
	if e == nil || e.adaptive == nil {
		return requested, 0, false
	}
	chosen, probe, ok := e.adaptive.EFFor(q)
	if !ok {
		return requested, 0, false
	}
	if explicit && chosen > requested {
		chosen = requested
	}
	if e.efChosen != nil {
		e.efChosen.Observe(float64(chosen))
	}
	return chosen, probe, chosen != requested
}

// AfterSearch runs the post-answer policy work for one served query:
// feeding the adaptive ring (kicking a background drift check when due)
// and rolling query augmentation. Returns whether the query was
// augmented, for attribution.
func (e *Engine) AfterSearch(q []float32) (augmented bool) {
	if e == nil {
		return false
	}
	if e.adaptive != nil && e.adaptive.Record(q) {
		go e.adaptive.MaybeRecalibrate(e.acquire)
	}
	return e.augmenter.MaybeAugment(q, e.sink)
}

// efBuckets spans the candidate-ef range the adaptive policy assigns.
var efBuckets = []float64{10, 25, 50, 75, 100, 150, 200, 300}

// RegisterMetrics registers the ngfix_policy_* families with reg —
// which must carry a shard const label (the server passes a
// shard="all" registry: the cache and calibration are global, one per
// process, like the admission limiter). Families for policies that are
// off are omitted so scrapes only show what is configured.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	if e == nil {
		return
	}
	if c := e.cache; c != nil {
		reg.CounterFunc("ngfix_policy_cache_hits_total",
			"Answer-cache hits (verified against the full stored query).",
			func() float64 { return float64(c.hits.Load()) })
		reg.CounterFunc("ngfix_policy_cache_misses_total",
			"Answer-cache misses (including stale-generation and collision rejects).",
			func() float64 { return float64(c.misses.Load()) })
		reg.CounterFunc("ngfix_policy_cache_evictions_total",
			"Answer-cache entries evicted oldest-first for capacity.",
			func() float64 { return float64(c.evictions.Load()) })
		reg.CounterFunc("ngfix_policy_cache_invalidations_total",
			"Cache-wide invalidations from store mutations (generation bumps).",
			func() float64 { return float64(c.invalidations.Load()) })
		reg.GaugeFunc("ngfix_policy_cache_entries",
			"Answer-cache entries currently resident.",
			func() float64 { return float64(c.Stats().Entries) })
	}
	if a := e.adaptive; a != nil {
		e.efChosen = reg.Histogram("ngfix_policy_adaptive_ef",
			"Per-query ef chosen by the adaptive policy.", efBuckets)
		reg.CounterFunc("ngfix_policy_adaptive_recalibrations_total",
			"Completed adaptive-ef recalibrations.",
			func() float64 { return float64(a.recals.Load()) })
		reg.CounterFunc("ngfix_policy_adaptive_deferrals_total",
			"Adaptive-ef recalibrations deferred because admission denied background units.",
			func() float64 { return float64(a.deferrals.Load()) })
		reg.CounterFunc("ngfix_policy_adaptive_recal_skips_total",
			"Adaptive-ef drift checks that found the bands still equal-count and skipped recalibration.",
			func() float64 { return float64(a.skips.Load()) })
	}
	if g := e.augmenter; g != nil {
		reg.CounterFunc("ngfix_policy_augmented_queries_total",
			"Served queries sampled for Gaussian augmentation.",
			func() float64 { return float64(g.sampled.Load()) })
		reg.CounterFunc("ngfix_policy_augment_injected_total",
			"Synthetic queries accepted into fixer buffers.",
			func() float64 { return float64(g.injected.Load()) })
		reg.CounterFunc("ngfix_policy_augment_rejected_total",
			"Synthetic queries refused for lack of fixer-buffer headroom.",
			func() float64 { return float64(g.rejected.Load()) })
	}
}
