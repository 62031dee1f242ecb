// Command perfbench is the repository's end-to-end serving benchmark.
// It assembles the production serving stack in-process (persist stores,
// one core.OnlineFixer per shard, shard.Group, admission, policy,
// repair, server.Server), serves it on a 127.0.0.1 listener, drives one
// workload over loopback, checks every answer, and prints the result as
// one JSON object on the last line of standard output.
//
// Run it from the repository root through its script, which builds it:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the window is split: the first half runs untraced, the
// second records spans around the benchmark's calls into each layer,
// and the result carries the per-layer metrics plus the tracing
// overhead (traced minus untraced). README.md lists the workloads, the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ngfix/internal/vec"
)

// workload is one traffic mix.
type workload struct {
	name       string
	clients    int  // closed-loop clients, each on its own connection
	writes     bool // churn: inserts and deletes among the searches
	policy     bool // answer cache + adaptive ef
	pq         bool // fused PQ-ADC with exact rerank from the mmap'd tier
	repair     bool // adaptive repair fleet
	explicitEF bool // requests carry ef=searchEF
}

// On a 2-core machine the read-only workloads run two clients, which
// keep both cores busy: with one, every request handed work to an idle
// core, and throughput swung by a fifth between runs. churn runs one
// client: with two, its p90 swung by a quarter, set by whether the
// second client's search queued behind the first one's insert, fix
// batch or snapshot. With one, fix batches and snapshots still stall
// its searches from the background.
var workloads = []workload{
	{name: "churn", clients: 1, writes: true, repair: true, explicitEF: true},
	{name: "repeat-policy", clients: 2, policy: true},
	{name: "pq-tier", clients: 2, pq: true, explicitEF: true},
}

// Run shape.
const (
	preloadInserts = 32  // churn: acknowledged before the window, so deletes have targets
	insertProbe    = 200 // inserts after the window, for persist.bytes_per_insert
	warmUpSeconds  = 0.5
	warmUpLimit    = 60 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "churn | repeat-policy | pq-tier")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured window length")
	traceFlag := fl.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var wl workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl.name == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	out, err := bench(wl, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench runs one workload end to end and returns its result line; the
// full report goes to standard output before it and to a file under
// .bench_build/reports.
func bench(wl workload, seed int64, seconds float64, traced bool) (*result, error) {
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", wl.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	epoch := time.Now()
	in := makeInputs(wl, seed)
	phases := map[string]float64{"inputs_s": time.Since(epoch).Seconds()}
	var spans *spanLog
	if traced {
		spans = newSpanLog(epoch)
	}

	heapBefore := liveHeap()
	t0 := time.Now()
	st, err := assemble(wl, filepath.Join(work, "state"), in.base, in.hist, spans)
	setup := time.Since(t0)
	if err != nil {
		if st != nil {
			st.shutdown()
		}
		return nil, fmt.Errorf("assemble: %w", err)
	}
	heapMB := float64(liveHeap()-heapBefore) / 1e6

	d := newLoadgen(wl, in, st, epoch)
	d.spans = spans
	rep := &report{Workload: wl.name, Seed: seed, Seconds: seconds, Trace: traced, Env: environment(wl)}
	all := &tally{}
	fail := func(err error) (*result, error) {
		st.shutdown()
		return nil, err
	}
	tw := time.Now()
	warm, err := d.warmUp()
	if err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	all.merge(warm)
	phases["warm_up_s"] = time.Since(tw).Seconds()

	metrics := map[string]metric{}
	tw = time.Now()
	var win window
	if !traced {
		win = d.window(seconds)
	} else {
		var plain window
		plain, win, err = d.tracedWindows(seconds, spans, metrics, rep)
		if err != nil {
			return fail(err)
		}
		all.merge(plain.t)
	}
	all.merge(win.t)
	phases["window_s"] = time.Since(tw).Seconds()
	rep.Inputs = inputProperties(wl, win.t, in)
	rep.Served = map[string]float64{
		"cache_hit_rate": ratio(float64(win.t.cacheHits), float64(win.t.searches)),
		"ef_used_mean":   ratio(win.t.efUsedSum, float64(win.t.answered)),
	}

	// Inserts sent one after another, after the window and with repair
	// stopped: the op-log bytes an insert costs.
	st.stopRepair()
	dirBefore := dirSize(st.dir)
	tp := time.Now()
	probe := d.insertProbe(insertProbe)
	phases["insert_probe_s"] = time.Since(tp).Seconds()
	all.merge(probe)
	if traced {
		bytes := float64(dirSize(st.dir)-dirBefore) / float64(probe.writes)
		metrics["persist.bytes_per_insert"] = metric{bytes, layerUnits["persist.bytes_per_insert"]}
	}
	if err := st.shutdown(); err != nil {
		all.problem("shutdown: %v", err)
	}
	ins, dels := d.acknowledged()
	rec := recoverAndCheck(st.dir, baseRows, ins, dels)
	for _, p := range rec.problems {
		all.problem("%s", p)
	}
	if traced {
		metrics["persist.recover_s"] = metric{rec.seconds, "s"}
		metrics["persist.replayed_ops"] = metric{float64(rec.replayed), "count"}
	} else {
		e := endToEnd(win)
		e["setup_s"] = setup.Seconds()
		e["heap_mb"] = heapMB
		for name, v := range e {
			metrics[name] = metric{v, e2eUnits[name]}
		}
	}

	phases["setup_s"] = setup.Seconds()
	phases["recover_s"] = rec.seconds
	phases["total_s"] = time.Since(epoch).Seconds()
	rep.PhaseSeconds = phases
	rep.Attempted, rep.Failed, rep.Wrong = all.attempted, all.failed, all.wrong
	rep.ErrorRate = ratio(float64(all.failed), float64(all.attempted))
	rep.Problems = all.problems
	rep.Metrics = metrics
	rep.print()
	return &result{
		Correct:   all.failed == 0 && all.wrong == 0 && len(all.problems) == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   metrics,
	}, nil
}

// tracedWindows runs half the window untraced and half traced, and
// fills metrics with the per-layer metrics of the traced half and the
// tracing overhead (traced minus untraced). It writes the spans to
// .bench_build/traces and their self times into rep.
func (d *loadgen) tracedWindows(seconds float64, spans *spanLog, metrics map[string]metric, rep *report) (plain, traced window, err error) {
	half := seconds / 2
	plain = d.window(half)
	before, err := d.counters()
	if err != nil {
		return plain, traced, err
	}
	spans.on.Store(true)
	pressure := startSampler(10*time.Millisecond, d.st.srv.Admission.Pressure)
	traced = d.window(half)
	pv := pressure.finish()
	spans.on.Store(false)
	after, err := d.counters()
	if err != nil {
		return plain, traced, err
	}
	sp := spans.snapshot()
	rep.WALOrphans = linkWAL(sp, d.walKeys)
	for name, v := range layerReport(d.wl, d.st, traced.t, sp, before, after, pv) {
		metrics[name] = metric{v, layerUnits[name]}
	}
	a, b := endToEnd(plain), endToEnd(traced)
	metrics["trace.overhead_search_p50_ms"] = metric{b["search_p50_ms"] - a["search_p50_ms"], "ms"}
	metrics["trace.overhead_search_p90_ms"] = metric{b["search_p90_ms"] - a["search_p90_ms"], "ms"}
	metrics["trace.overhead_search_qps"] = metric{b["search_qps"] - a["search_qps"], "1/s"}
	rep.SelfTimeUS = selfTimes(sp)
	rep.Absent = absentLayers(d.wl)
	rep.Spans = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", d.wl.name, rep.Seed))
	if err := os.MkdirAll(filepath.Dir(rep.Spans), 0o755); err != nil {
		return plain, traced, err
	}
	return plain, traced, writeSpans(rep.Spans, sp)
}

// e2eUnits and layerUnits are the metric catalogue; BENCHMARK.json
// declares the same names.
var e2eUnits = map[string]string{
	"setup_s": "s", "search_qps": "1/s", "search_p50_ms": "ms", "search_p90_ms": "ms",
	"recall_at_10": "ratio", "heap_mb": "MB",
}

var layerUnits = map[string]string{
	"net.overhead_us_p50":  "us",
	"server.search_us_p50": "us", "server.search_us_p99": "us", "server.insert_us_p50": "us", "server.insert_us_p99": "us",
	"server.decode_us_p50": "us", "server.encode_us_p50": "us", "server.req_bytes": "bytes", "server.resp_bytes": "bytes",
	"policy.shape_us_p50": "us", "policy.cache_get_us_p50": "us", "policy.cache_hit_rate": "ratio",
	"policy.cache_evictions": "count", "policy.ef_used_mean": "ef",
	"admission.acquire_us_p99": "us", "admission.pressure_mean": "ratio", "admission.shed_rate": "ratio",
	"admission.timed_out": "count", "admission.clamped_rate": "ratio",
	"shard.search_us_p50": "us", "shard.search_us_p99": "us", "shard.merge_us_p50": "us", "shard.skew": "ratio",
	"core.search_us_p50": "us", "core.search_us_p99": "us", "core.ndc_per_search": "count", "core.hops_per_search": "count",
	"core.insert_apply_us_p50": "us", "core.fix_batches": "count", "core.fix_batch_ms_p50": "ms", "core.fix_edges": "count",
	"core.build_s":    "s",
	"pq.table_us_p50": "us", "pq.adc_per_search": "count", "pq.rerank_ndc_per_search": "count", "pq.train_s": "s",
	"pq.resident_mb":  "MB",
	"persist.appends": "count", "persist.append_us_p50": "us", "persist.append_us_p99": "us",
	"persist.fix_edges_us_p99": "us", "persist.snapshot_ms": "ms", "persist.snapshots": "count",
	"persist.bytes_per_insert": "bytes",
	"repair.batches":           "count", "repair.deferred": "count", "repair.shrunk": "count", "repair.cost_units": "count",
	"repair.unreachable_ewma": "ratio",
}

// sliceLen is the shortest window slice whose median the search rate
// and latency percentiles report.
const sliceLen = time.Second

// endToEnd derives a window's request metrics. The search rate and
// latency percentiles are medians over the window's slices (by send
// time): on a shared 2-core machine a stretch of host contention or a
// slow fsync slows every request for a while, and a whole-window figure
// would report that stretch rather than the system. The tail reported
// is p90: over ten runs on such a machine the p99 of a slice spread by
// more than half its median, because a few host preemptions decide it.
func endToEnd(w window) map[string]float64 {
	t := w.t
	return map[string]float64{
		"search_qps":    slicedRate(t.answeredAt, w),
		"search_p50_ms": slicedQuantile(t.searchAt, t.searchMS, w, 0.5),
		"search_p90_ms": slicedQuantile(t.searchAt, t.searchMS, w, 0.9),
		"recall_at_10":  ratio(t.recallSum, float64(t.recallN)),
	}
}

// minSliceSearches is the fewest searches a slice may hold, so its p90
// has ten samples beyond it.
const minSliceSearches = 100

// slices returns the slice count of w and the slice an event at time
// at falls in: one per sliceLen, but no more than the searches allow.
func slices(w window) (int, func(at int64) int) {
	n := max(1, min(int(w.len/sliceLen), len(w.t.searchAt)/minSliceSearches))
	return n, func(at int64) int {
		i := int(int64(n) * (at - w.start) / int64(w.len))
		return min(max(i, 0), n-1)
	}
}

// slicedQuantile is the median over w's slices of the q-quantile of the
// samples xs that fall in each (at[i] is xs[i]'s time).
func slicedQuantile(at []int64, xs []float64, w window, q float64) float64 {
	n, slice := slices(w)
	per := make([][]float64, n)
	for i, x := range xs {
		s := slice(at[i])
		per[s] = append(per[s], x)
	}
	var qs []float64
	for _, p := range per {
		if len(p) > 0 {
			qs = append(qs, quantile(p, q))
		}
	}
	return quantile(qs, 0.5)
}

// slicedRate is the median over w's slices of events per second.
func slicedRate(at []int64, w window) float64 {
	n, slice := slices(w)
	counts := make([]float64, n)
	for _, a := range at {
		counts[slice(a)]++
	}
	for i := range counts {
		counts[i] /= w.len.Seconds() / float64(n)
	}
	return quantile(counts, 0.5)
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// report is everything a run measured beyond the result line.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	Env          map[string]any     `json:"env"`
	Inputs       map[string]any     `json:"inputs"`
	Served       map[string]float64 `json:"served"`
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Wrong        int                `json:"wrong"`
	ErrorRate    float64            `json:"error_rate"`
	Problems     []string           `json:"problems,omitempty"`
	Metrics      map[string]metric  `json:"metrics"`
	Absent       []string           `json:"absent_layers,omitempty"`
	SelfTimeUS   map[string]float64 `json:"self_time_us_p50,omitempty"`
	WALOrphans   int                `json:"wal_spans_unlinked,omitempty"`
	Spans        string             `json:"spans_file,omitempty"`
}

// print writes the report as one JSON line and to
// .bench_build/reports/<workload>-seed<n>-trace<t>.json.
func (r *report) print() {
	line, err := json.Marshal(map[string]any{"report": r})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Println(string(line))
	dir := filepath.Join(".bench_build", "reports")
	if os.MkdirAll(dir, 0o755) == nil {
		trace := 0
		if r.Trace {
			trace = 1
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace))
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		}
	}
}

func environment(wl workload) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     vec.BestKernelName(),
		"fsync":      "every op-log append and snapshot (persist.Options{} default)",
		"clients":    wl.clients,
		"shards":     numShards,
	}
}

// inputProperties measures the properties of what the window sent that
// the system's behaviour depends on.
func inputProperties(wl workload, t *tally, in *inputs) map[string]any {
	p := map[string]any{
		"searches":           t.searches,
		"writes":             t.writes,
		"write_share":        ratio(float64(t.writes), float64(t.attempted)),
		"ood_share":          ratio(float64(t.ood), float64(t.searches)),
		"exact_repeat_share": ratio(float64(t.repeats), float64(t.searches)),
		"distinct_queries":   in.queries.Rows(),
		"base_vectors":       baseRows,
		"dim":                dim,
		"k":                  k,
	}
	if wl.policy {
		p["cache_capacity"] = cacheEntries
		p["zipf_s"] = zipfS
	}
	return p
}
