package core

import (
	"bytes"
	"testing"

	"ngfix/internal/obs"
)

// TestOnlineFixerMetrics checks that a fixer built with a registry
// actually moves its families: search observations per query, fix-batch
// counters after a drain, and live gauges reflecting index state.
func TestOnlineFixerMetrics(t *testing.T) {
	d, g := testWorkload(t)
	ix := New(g, Options{Rounds: []Round{{K: 15, RFix: true}}, LEx: 32})
	reg := obs.NewRegistry()
	o := NewOnlineFixer(ix, OnlineConfig{BatchSize: 100, Metrics: reg})

	const searches = 12
	for qi := 0; qi < searches; qi++ {
		o.Search(d.History.Row(qi), 10, 20)
	}
	rep, _ := o.FixPending(0)
	if rep.Queries != searches {
		t.Fatalf("fixed %d queries, want %d", rep.Queries, searches)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}

	if got := samples["ngfix_search_ndc_count"]; got != searches {
		t.Fatalf("ngfix_search_ndc_count = %v, want %d", got, searches)
	}
	if samples["ngfix_search_ndc_sum"] <= 0 {
		t.Fatal("ngfix_search_ndc_sum did not move")
	}
	if got := samples["ngfix_search_hops_count"]; got != searches {
		t.Fatalf("ngfix_search_hops_count = %v, want %d", got, searches)
	}
	if got := samples["ngfix_fix_batches_total"]; got != 1 {
		t.Fatalf("ngfix_fix_batches_total = %v, want 1", got)
	}
	if got := samples["ngfix_fix_queries_total"]; got != searches {
		t.Fatalf("ngfix_fix_queries_total = %v, want %d", got, searches)
	}
	if got := samples[`ngfix_fix_edges_total{kind="ngfix"}`]; got != float64(rep.NGFixEdges) {
		t.Fatalf(`ngfix edges = %v, want %d`, got, rep.NGFixEdges)
	}
	if got := samples[`ngfix_fix_edges_total{kind="rfix"}`]; got != float64(rep.RFixEdges) {
		t.Fatalf(`rfix edges = %v, want %d`, got, rep.RFixEdges)
	}
	if got := samples["ngfix_fix_batch_duration_seconds_count"]; got != 1 {
		t.Fatalf("batch duration count = %v, want 1", got)
	}
	if got := samples[`ngfix_fix_unreachable_query_rate_count{phase="before"}`]; got != 1 {
		t.Fatalf("unreachable rate (before) count = %v, want 1", got)
	}
	if got := samples[`ngfix_fix_unreachable_query_rate_count{phase="after"}`]; got != 1 {
		t.Fatalf("unreachable rate (after) count = %v, want 1", got)
	}
	if got := samples["ngfix_vectors"]; got != float64(o.Len()) {
		t.Fatalf("ngfix_vectors = %v, want %d", got, o.Len())
	}
	if got := samples["ngfix_pending_fix_queries"]; got != 0 {
		t.Fatalf("ngfix_pending_fix_queries = %v, want 0 after drain", got)
	}

	// A fixer without a registry takes the nil-receiver fast path.
	o2 := NewOnlineFixer(New(g, Options{Rounds: []Round{{K: 15}}, LEx: 32}), OnlineConfig{BatchSize: 10})
	o2.Search(d.History.Row(0), 10, 20)
	o2.metrics.observeSearch(1, 1) // explicit nil-safety check
	o2.metrics.observeFix(FixReport{})
}
