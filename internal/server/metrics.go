package server

import (
	"net/http"
	"time"

	"ngfix/internal/obs"
	"ngfix/internal/shard/reshard"
)

// Search outcomes for the duration histogram. Precedence when several
// apply: shed > truncated > clamped > ok — the most operationally
// interesting thing that happened to the request wins.
const (
	outcomeOK        = "ok"
	outcomeTruncated = "truncated"
	outcomeClamped   = "clamped"
	outcomeShed      = "shed"
	outcomeCacheHit  = "cache_hit"
)

// serverMetrics is the HTTP layer's telemetry: search latency split by
// what the overload machinery did to each request, plus how many
// searches crossed the slow-query threshold.
type serverMetrics struct {
	searchSeconds map[string]*obs.Histogram // by outcome, pre-registered
	slowQueries   *obs.Counter
}

// EnableMetrics registers the server's families with reg, wires the
// admission controller's metrics when one is configured, and makes
// GET /metrics serve the merged exposition of reg plus any per-shard
// registries. Call once, before serving traffic (and after EnablePolicy
// and any ReshardFunc/ReshardProgress wiring, whose families it
// registers).
//
// Label scheme: HTTP-layer and process families live unlabeled on reg;
// each shard's fixer and store families live on its own registry
// carrying a shard="<i>" const label (the caller builds those and
// passes them here — replaceable later via SetShardRegistries, because
// a reshard doubles the shard line-up); the admission controller, the
// policy engine, and the reshard coordinator — process-global, not
// per-shard — register under shard="all" so the e2e label gate can
// assert every core/persist/admission family names its shard.
func (s *Server) EnableMetrics(reg *obs.Registry, shardRegs ...*obs.Registry) {
	m := &serverMetrics{searchSeconds: make(map[string]*obs.Histogram)}
	for _, outcome := range []string{outcomeOK, outcomeTruncated, outcomeClamped, outcomeShed, outcomeCacheHit} {
		m.searchSeconds[outcome] = reg.Histogram("ngfix_search_duration_seconds",
			"End-to-end /v1/search latency (decode through response), by outcome.",
			obs.DefLatencyBuckets, obs.Label{Name: "outcome", Value: outcome})
	}
	m.slowQueries = reg.Counter("ngfix_slow_queries_total",
		"Searches at or over the slow-query threshold.")
	regs := []*obs.Registry{reg}
	if s.Admission != nil {
		admReg := obs.NewRegistry(obs.Label{Name: "shard", Value: "all"})
		s.Admission.RegisterMetrics(admReg)
		regs = append(regs, admReg)
	}
	if s.policyEngine != nil {
		// The policy engine is process-global (one cache, one calibration)
		// like the admission limiter, so its families carry shard="all".
		// EnablePolicy must therefore run before EnableMetrics.
		polReg := obs.NewRegistry(obs.Label{Name: "shard", Value: "all"})
		s.policyEngine.RegisterMetrics(polReg)
		regs = append(regs, polReg)
	}
	if s.ReshardProgress != nil {
		rsReg := obs.NewRegistry(obs.Label{Name: "shard", Value: "all"})
		s.registerReshardMetrics(rsReg)
		regs = append(regs, rsReg)
	}
	s.metrics = m
	s.baseRegs = regs
	s.SetShardRegistries(shardRegs...)
}

// SetShardRegistries replaces the per-shard registry set /metrics merges
// in — the reshard cutover swaps it together with the group and stores,
// so the exposition immediately carries every child shard's families and
// stops repeating the retired parents'.
func (s *Server) SetShardRegistries(shardRegs ...*obs.Registry) {
	s.shardRegs.Store(&shardRegs)
}

// registerReshardMetrics publishes the ngfix_reshard_* families over the
// ReshardProgress hook. Counters are func-backed — the wiring layer
// keeps them monotonic across consecutive reshards by accumulating
// finished runs' totals into the reported Progress.
func (s *Server) registerReshardMetrics(reg *obs.Registry) {
	progress := s.ReshardProgress
	reg.GaugeFunc("ngfix_reshard_active",
		"1 while a live reshard is streaming, tailing, or cutting over.",
		func() float64 {
			if progress().Active {
				return 1
			}
			return 0
		})
	for _, state := range []string{reshard.StateIdle, reshard.StateStreaming, reshard.StateTailing, reshard.StateCutover, reshard.StateDone, reshard.StateFailed} {
		state := state
		reg.GaugeFunc("ngfix_reshard_state",
			"1 on the row matching the reshard coordinator's current state.",
			func() float64 {
				if progress().State == state {
					return 1
				}
				return 0
			}, obs.Label{Name: "state", Value: state})
	}
	reg.CounterFunc("ngfix_reshard_rows_streamed_total",
		"Parent rows materialized into split children (bootstrap inserts).",
		func() float64 { return float64(progress().RowsStreamed) })
	reg.CounterFunc("ngfix_reshard_ops_tailed_total",
		"Parent WAL records applied by split children while tailing.",
		func() float64 { return float64(progress().OpsTailed) })
	reg.CounterFunc("ngfix_reshard_ops_discarded_total",
		"Tailed records children skipped (other sibling's rows, fix batches).",
		func() float64 { return float64(progress().OpsDiscarded) })
	reg.CounterFunc("ngfix_reshard_cutover_attempts_total",
		"Cutover drain attempts, including ones that timed out and resumed.",
		func() float64 { return float64(progress().CutoverAttempts) })
	reg.GaugeFunc("ngfix_reshard_cutover_seconds",
		"Duration of the last committed cutover's write-pause window.",
		func() float64 { return float64(progress().CutoverMillis) / 1000 })
}

// handleMetrics serves the merged exposition of the server's registries
// and, once metrics are enabled, the current per-shard ones.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	regs := s.baseRegs
	if p := s.shardRegs.Load(); p != nil && len(regs) > 0 {
		regs = append(append([]*obs.Registry(nil), regs...), *p...)
	}
	s.serveMetrics(w, r, regs)
}

// observeSearch records one search's latency under its outcome. Nil-safe:
// an uninstrumented server pays one nil check.
func (m *serverMetrics) observeSearch(outcome string, d time.Duration) {
	if m == nil {
		return
	}
	m.searchSeconds[outcome].ObserveDuration(d)
}

func (m *serverMetrics) observeSlowQuery() {
	if m == nil {
		return
	}
	m.slowQueries.Inc()
}
