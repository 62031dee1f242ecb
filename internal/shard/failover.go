package shard

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ngfix/internal/graph"
)

// ReadReplica is what the group needs from a shard's follower to serve
// reads when the primary cannot: a read-only search, a readiness gate,
// and a hook to account the failover. internal/replica implements it;
// the group deliberately knows nothing about how the follower stays
// fresh.
type ReadReplica interface {
	// SearchCtx serves one query from the replica's current (possibly
	// stale) state. ok is false when the replica cannot serve yet.
	SearchCtx(ctx context.Context, q []float32, k, ef int) ([]graph.Result, graph.Stats, bool)
	// Ready reports whether the replica is eligible to stand in for the
	// primary (bootstrapped and within its configured lag bound).
	Ready() bool
	// NoteFailover records one search served here in the primary's stead.
	NoteFailover()
}

// FailoverPolicy decides when a shard's reads leave the primary.
type FailoverPolicy struct {
	// Unhealthy marks shards whose primary is known-bad (wedged repair,
	// degraded durability): their reads go straight to the replica
	// without burning the hedge delay.
	Unhealthy func(shard int) bool
	// After is the hedge: if a healthy-looking primary has not answered
	// within this delay, the replica is queried too and the first answer
	// wins. This is what catches a primary blocked on a frozen WAL —
	// that failure mode blocks uncancellably on a lock and never reports
	// itself unhealthy. Zero disables hedging.
	After time.Duration
}

// SetReplicas attaches one follower per shard (nil entries mean that
// shard has no replica) and the policy that routes reads to them. Must
// be called during wiring, before searches are served; the group reads
// these fields without synchronization afterwards.
func (g *Group) SetReplicas(reps []ReadReplica, pol FailoverPolicy) error {
	if len(reps) != len(g.fixers) {
		return fmt.Errorf("shard: %d replicas for %d shards", len(reps), len(g.fixers))
	}
	g.replicas = reps
	g.pol = pol
	return nil
}

// HasReplicas reports whether any shard has a replica attached.
func (g *Group) HasReplicas() bool {
	for _, r := range g.replicas {
		if r != nil {
			return true
		}
	}
	return false
}

// ReplicaFor returns shard s's replica, or nil.
func (g *Group) ReplicaFor(s int) ReadReplica {
	if g.replicas == nil {
		return nil
	}
	return g.replicas[s]
}

// ReplicaCovers reports whether shard s's reads can fail over right now:
// a replica is attached and ready. The readiness endpoint uses this to
// tell "degraded but covered" from "shard dark".
func (g *Group) ReplicaCovers(s int) bool {
	r := g.ReplicaFor(s)
	return r != nil && r.Ready()
}

// searchShard answers one shard's part of a scatter, failing over to the
// shard's replica per the group's policy. stale reports the answer came
// from the replica. Results carry local ids; the caller maps to global.
func (g *Group) searchShard(ctx context.Context, s int, q []float32, k, ef int) ([]graph.Result, graph.Stats, bool) {
	rep := g.ReplicaFor(s)
	if rep == nil {
		res, st := g.fixers[s].SearchCtx(ctx, q, k, ef)
		return res, st, false
	}
	// Known-bad primary: don't even wait the hedge delay.
	if g.pol.Unhealthy != nil && g.pol.Unhealthy(s) {
		if res, st, ok := rep.SearchCtx(ctx, q, k, ef); ok {
			rep.NoteFailover()
			return res, st, true
		}
	}
	if g.pol.After <= 0 || !rep.Ready() {
		res, st := g.fixers[s].SearchCtx(ctx, q, k, ef)
		return res, st, false
	}

	// Hedge: race the primary against a delayed replica query. The
	// primary's beam honors ctx per hop, but a primary blocked *before*
	// the beam — on the index lock a frozen WAL append holds — cannot be
	// cancelled at all, and this timer is the only thing standing between
	// that shard and an unanswerable query.
	type answer struct {
		res   []graph.Result
		st    graph.Stats
		stale bool
	}
	ch := make(chan answer, 2) // buffered: the loser never blocks
	go func() {
		res, st := g.fixers[s].SearchCtx(ctx, q, k, ef)
		ch <- answer{res: res, st: st}
	}()
	timer := time.NewTimer(g.pol.After)
	defer timer.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case a := <-ch:
		return a.res, a.st, false
	case <-done:
		// Deadline beat the hedge: take whatever the replica has rather
		// than nothing (a truncated stale answer still beats a timeout).
		if res, st, ok := rep.SearchCtx(ctx, q, k, ef); ok {
			rep.NoteFailover()
			return res, st, true
		}
		return nil, graph.Stats{Truncated: true}, false
	case <-timer.C:
	}
	go func() {
		if res, st, ok := rep.SearchCtx(ctx, q, k, ef); ok {
			ch <- answer{res: res, st: st, stale: true}
		}
	}()
	select {
	case a := <-ch:
		if a.stale {
			rep.NoteFailover()
		}
		return a.res, a.st, a.stale
	case <-done:
		return nil, graph.Stats{Truncated: true}, false
	}
}

// SearchStale is SearchCtx plus failover: when a shard's primary is
// unhealthy or slower than the hedge delay and its replica can serve,
// that shard's portion of the answer comes from the replica and stale
// reports it. The query degrades in freshness, not availability — one
// wedged shard no longer takes the whole index's reads down with it.
func (g *Group) SearchStale(ctx context.Context, q []float32, k, ef int, parallel int) ([]graph.Result, graph.Stats, bool) {
	return g.router.Gather(ctx, k, parallel, func(s int) ([]graph.Result, graph.Stats, bool) {
		return g.searchShard(ctx, s, q, k, ef)
	})
}

// Gather is the scatter-gather every multi-shard read runs: it calls
// search for each of the router's shards, at most parallel at once, and
// merges the answers into a global top-k. search returns one shard's
// answer with shard-local ids and whether it is stale (served by a
// replica); a shard that cannot answer returns no results with
// Stats.Truncated set. Stats sum across shards (NDC, ADC lookups and
// hops measure total work, which is what the cost model prices), and
// stale is true when any shard's answer was.
//
// Cancellation is two-level: each per-shard search honors ctx on its own
// (returning its best-so-far with Truncated set), and the gather stops
// waiting for stragglers once ctx ends (nil never ends), merging
// whatever shards have answered. With one shard, search runs inline and
// its answer is returned as is: local ids are global.
func (r Router) Gather(ctx context.Context, k, parallel int, search func(s int) ([]graph.Result, graph.Stats, bool)) ([]graph.Result, graph.Stats, bool) {
	n := r.n
	if n == 1 {
		return search(0)
	}
	parallel = max(1, min(parallel, n))

	type hit struct {
		shard int
		res   []graph.Result
		st    graph.Stats
		stale bool
	}
	sem := make(chan struct{}, parallel)
	hits := make(chan hit, n) // buffered: stragglers never block after abandon
	for s := 0; s < n; s++ {
		go func(s int) {
			sem <- struct{}{}
			res, st, stale := search(s)
			<-sem
			hits <- hit{shard: s, res: res, st: st, stale: stale}
		}(s)
	}

	var (
		merged []graph.Result
		stats  graph.Stats
		stale  bool
	)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for received := 0; received < n; received++ {
		select {
		case h := <-hits:
			for _, res := range h.res {
				merged = append(merged, graph.Result{ID: r.Global(h.shard, res.ID), Dist: res.Dist})
			}
			stats.NDC += h.st.NDC
			stats.ADCLookups += h.st.ADCLookups
			stats.Hops += h.st.Hops
			stats.Truncated = stats.Truncated || h.st.Truncated
			stale = stale || h.stale
		case <-done:
			// Deadline expired mid-gather: answer with the shards that made
			// it. The stragglers finish into the buffered channel and are
			// garbage-collected with it.
			stats.Truncated = true
			received = n
		}
	}

	// Global top-k: each shard's list is its local top-k, so the union
	// contains the true global top-k. Ties break toward the lower global
	// id to keep the one-shard and N-shard orders comparable in tests.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Dist != merged[j].Dist {
			return merged[i].Dist < merged[j].Dist
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, stats, stale
}
