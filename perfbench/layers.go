package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ngfix/internal/core"
	"ngfix/internal/obs"
	"ngfix/internal/server"
)

// probeEvery is the stride of traced searches that are followed by
// in-process probes of each layer's public functions.
const probeEvery = 16

// probe times, for one answered search, the calls each layer makes for
// it: request decode and response encode, the policy engine's ShapeEF
// and cache Get, admission's Acquire, the shard group's SearchCtx, each
// shard fixer's SearchCtx and, with PQ, the quantizer's BuildTable. The
// probes run in the client goroutine after the reply, so they lengthen
// the traced window's closed loop but not the request's own spans.
func (d *loadgen) probe(req uint64, row int32, body []byte, resp *server.SearchResponse) {
	sp := d.spans
	timed := func(name string, fn func()) time.Duration {
		start := sp.now()
		fn()
		end := sp.now()
		sp.add(span{Req: req, Name: name, Start: start, End: end})
		return time.Duration(end - start)
	}
	q := d.in.queries.Row(int(row))
	ef := resp.EFUsed
	ctx := context.Background()
	timed("server.decode", func() {
		var r server.SearchRequest
		_ = json.Unmarshal(body, &r) // the server accepted these exact bytes
	})
	timed("server.encode", func() { _, _ = json.Marshal(resp) })
	if eng := d.st.eng; eng != nil {
		requested := d.st.srv.DefaultEF
		if d.wl.explicitEF {
			requested = searchEF
		}
		timed("policy.shape", func() { eng.ShapeEF(q, requested, d.wl.explicitEF) })
		if c := eng.Cache(); c != nil {
			timed("policy.cache_get", func() { c.Get(q, k, ef) })
		}
	}
	adm := d.st.srv.Admission
	timed("admission.acquire", func() {
		if release, err := adm.Acquire(ctx, adm.SearchCostN(ef, numShards)); err == nil {
			release()
		}
	})
	timed("shard.search", func() { d.st.group.SearchCtx(ctx, q, k, ef, numShards) })
	for i := 0; i < numShards; i++ {
		f := d.st.group.Fixer(i)
		timed("core.search", func() { f.SearchCtx(ctx, q, k, ef) })
	}
	if len(d.st.quants) > 0 {
		qz := d.st.quants[int(row)%len(d.st.quants)]
		timed("pq.table", func() { qz.BuildTable(q) })
	}
}

// counters is a reading of every counter the per-layer metrics take
// deltas of.
type counters struct {
	stats   server.StatsResponse
	metrics map[string]float64
	pq      core.PQStats
}

func (d *loadgen) counters() (counters, error) {
	var c counters
	var err error
	if c.stats, err = d.stats(); err != nil {
		return c, err
	}
	resp, err := d.hc.Get(d.st.url + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if c.metrics, err = obs.ParseText(resp.Body); err != nil {
		return c, err
	}
	c.pq, _, _ = d.st.group.PQStats()
	return c, nil
}

// family sums every sample of a metric family member (e.g.
// "ngfix_search_ndc_sum") across its label sets.
func family(m map[string]float64, name string) float64 {
	total := 0.0
	for key, v := range m {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

// familyMean averages a gauge across its label sets (0 when absent).
func familyMean(m map[string]float64, name string) float64 {
	total, n := 0.0, 0
	for key, v := range m {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// histQuantile estimates quantile q of the observations a histogram
// family gained between two readings, summed across label sets, by
// linear interpolation inside the bucket that holds it.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	cum := map[float64]float64{}
	for key, v := range after {
		if !strings.HasPrefix(key, name+"_bucket{") {
			continue
		}
		le := labelValue(key, "le")
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err = math.Inf(1), nil
		}
		if err == nil {
			cum[bound] += v - before[key]
		}
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	lo, prev := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= target {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*(target-prev)/(cum[b]-prev)
		}
		lo, prev = b, cum[b]
	}
	return lo
}

func labelValue(key, label string) string {
	i := strings.Index(key, label+`="`)
	if i < 0 {
		return ""
	}
	rest := key[i+len(label)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// sampler reads a value on a fixed period until stopped.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	vals []float64
}

func startSampler(period time.Duration, read func() float64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				v := read()
				s.mu.Lock()
				s.vals = append(s.vals, v)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *sampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.vals
}

// layerReport derives the per-layer metrics of the traced window from
// its spans, the counter readings around it and the client's tally.
func layerReport(wl workload, st *stack, t *tally, spans []span, before, after counters, pressure []float64) map[string]float64 {
	m := map[string]float64{}
	byName := map[string][]span{}
	byReq := map[uint64]map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Req != 0 {
			if byReq[s.Req] == nil {
				byReq[s.Req] = map[string][]span{}
			}
			byReq[s.Req][s.Name] = append(byReq[s.Req][s.Name], s)
		}
	}
	durUS := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.dur())/1e3)
		}
		return xs
	}

	// net and server.
	var overhead, merge, skew, apply []float64
	for _, r := range byReq {
		if c, s := r["client/v1/search"], r["server/v1/search"]; len(c) == 1 && len(s) == 1 {
			overhead = append(overhead, float64(c[0].dur()-s[0].dur())/1e3)
		}
		if sh, cs := r["shard.search"], r["core.search"]; len(sh) == 1 && len(cs) > 0 {
			slowest, sum := time.Duration(0), time.Duration(0)
			for _, c := range cs {
				slowest = max(slowest, c.dur())
				sum += c.dur()
			}
			merge = append(merge, float64(sh[0].dur()-slowest)/1e3)
			if sum > 0 {
				skew = append(skew, float64(slowest)*float64(len(cs))/float64(sum))
			}
		}
		if s, w := r["server/v1/insert"], r["persist.log_insert"]; len(s) == 1 && len(w) == 1 {
			apply = append(apply, float64(s[0].dur()-w[0].dur())/1e3)
		}
	}
	m["net.overhead_us_p50"] = quantile(overhead, 0.5)
	m["server.search_us_p50"] = quantile(durUS("server/v1/search"), 0.5)
	m["server.search_us_p99"] = quantile(durUS("server/v1/search"), 0.99)
	m["server.insert_us_p50"] = quantile(durUS("server/v1/insert"), 0.5)
	m["server.insert_us_p99"] = quantile(durUS("server/v1/insert"), 0.99)
	m["server.decode_us_p50"] = quantile(durUS("server.decode"), 0.5)
	m["server.encode_us_p50"] = quantile(durUS("server.encode"), 0.5)
	m["server.req_bytes"] = ratio(float64(t.reqBytes), float64(t.searches))
	m["server.resp_bytes"] = ratio(float64(t.respBytes), float64(t.searches))

	// policy.
	m["policy.shape_us_p50"] = quantile(durUS("policy.shape"), 0.5)
	m["policy.cache_get_us_p50"] = quantile(durUS("policy.cache_get"), 0.5)
	m["policy.cache_hit_rate"] = 0
	m["policy.cache_evictions"] = 0
	if wl.policy {
		m["policy.cache_hit_rate"] = ratio(float64(t.cacheHits), float64(t.searches))
		m["policy.cache_evictions"] = float64(after.stats.Policy.Cache.Evictions - before.stats.Policy.Cache.Evictions)
	}
	m["policy.ef_used_mean"] = ratio(t.efUsedSum, float64(t.answered))

	// admission.
	a0, a1 := before.stats.Admission, after.stats.Admission
	m["admission.acquire_us_p99"] = quantile(durUS("admission.acquire"), 0.99)
	m["admission.pressure_mean"] = mean(pressure)
	m["admission.shed_rate"] = ratio(float64(a1.Shed-a0.Shed), float64(t.attempted))
	m["admission.timed_out"] = float64(a1.TimedOut - a0.TimedOut)
	m["admission.clamped_rate"] = ratio(float64(after.stats.ClampedSearches-before.stats.ClampedSearches), float64(t.searches))

	// shard.
	m["shard.search_us_p50"] = quantile(durUS("shard.search"), 0.5)
	m["shard.search_us_p99"] = quantile(durUS("shard.search"), 0.99)
	m["shard.merge_us_p50"] = quantile(merge, 0.5)
	m["shard.skew"] = mean(skew)

	// core.
	delta := func(name string) float64 { return family(after.metrics, name) - family(before.metrics, name) }
	m["core.search_us_p50"] = quantile(durUS("core.search"), 0.5)
	m["core.search_us_p99"] = quantile(durUS("core.search"), 0.99)
	m["core.ndc_per_search"] = ratio(delta("ngfix_search_ndc_sum"), delta("ngfix_search_ndc_count"))
	m["core.hops_per_search"] = ratio(delta("ngfix_search_hops_sum"), delta("ngfix_search_hops_count"))
	m["core.insert_apply_us_p50"] = quantile(apply, 0.5)
	m["core.fix_batches"] = delta("ngfix_fix_batches_total")
	m["core.fix_batch_ms_p50"] = 1e3 * histQuantile(before.metrics, after.metrics, "ngfix_fix_batch_duration_seconds", 0.5)
	m["core.fix_edges"] = delta("ngfix_fix_edges_total")
	m["core.build_s"] = st.buildDur.Seconds()

	// pq.
	p0, p1 := before.pq, after.pq
	m["pq.table_us_p50"] = quantile(durUS("pq.table"), 0.5)
	m["pq.adc_per_search"] = ratio(float64(p1.ADCLookups-p0.ADCLookups), float64(p1.Searches-p0.Searches))
	m["pq.rerank_ndc_per_search"] = ratio(float64(p1.RerankNDC-p0.RerankNDC), float64(p1.Searches-p0.Searches))
	m["pq.train_s"] = st.trainDur.Seconds()
	m["pq.resident_mb"] = float64(p1.ResidentBytes) / 1e6

	// persist.
	appends := append(durUS("persist.log_insert"), durUS("persist.log_delete")...)
	snaps := durUS("persist.snapshot")
	m["persist.appends"] = float64(len(appends) + len(byName["persist.log_fix_edges"]))
	m["persist.append_us_p50"] = quantile(appends, 0.5)
	m["persist.append_us_p99"] = quantile(appends, 0.99)
	m["persist.fix_edges_us_p99"] = quantile(durUS("persist.log_fix_edges"), 0.99)
	m["persist.snapshots"] = float64(len(snaps))
	m["persist.snapshot_ms"] = mean(snaps) / 1e3

	// repair.
	var r0, r1 [4]uint64
	for _, s := range before.stats.Repair {
		r0 = [4]uint64{r0[0] + s.BatchesRun, r0[1] + s.BatchesDeferred, r0[2] + s.BatchesShrunk, r0[3] + s.CostUnits}
	}
	for _, s := range after.stats.Repair {
		r1 = [4]uint64{r1[0] + s.BatchesRun, r1[1] + s.BatchesDeferred, r1[2] + s.BatchesShrunk, r1[3] + s.CostUnits}
	}
	m["repair.batches"] = float64(r1[0] - r0[0])
	m["repair.deferred"] = float64(r1[1] - r0[1])
	m["repair.shrunk"] = float64(r1[2] - r0[2])
	m["repair.cost_units"] = float64(r1[3] - r0[3])
	m["repair.unreachable_ewma"] = familyMean(after.metrics, "ngfix_repair_unreachable_ewma")
	return m
}

// absentLayers names the per-layer metrics a workload has no layer for,
// so they read 0 by construction rather than by measurement.
func absentLayers(wl workload) []string {
	var out []string
	if !wl.policy {
		out = append(out, "policy.shape_us_p50", "policy.cache_get_us_p50", "policy.cache_hit_rate", "policy.cache_evictions")
	}
	if !wl.pq {
		out = append(out, "pq.table_us_p50", "pq.adc_per_search", "pq.rerank_ndc_per_search", "pq.train_s", "pq.resident_mb")
	}
	if !wl.writes {
		out = append(out, "server.insert_us_p50", "server.insert_us_p99",
			"core.insert_apply_us_p50", "persist.append_us_p50", "persist.append_us_p99")
	}
	if !wl.repair {
		out = append(out, "core.fix_batch_ms_p50", "persist.fix_edges_us_p99", "repair.unreachable_ewma")
	}
	return out
}
