package graph

import (
	"context"

	"ngfix/internal/minheap"
	"ngfix/internal/vec"
)

// Result is one search hit.
type Result struct {
	ID   uint32
	Dist float32
}

// Stats reports the cost of one search.
type Stats struct {
	// NDC is the number of distance calculations performed.
	NDC int64
	// ADCLookups is the number of compressed-domain score evaluations
	// (asymmetric-distance table lookups) performed, zero on full-precision
	// searches. A PQ-fused search reports its navigation work here and only
	// the exact rerank in NDC, so the two costs stay separately visible.
	ADCLookups int64
	// Hops is the number of vertices whose neighbor lists were expanded.
	Hops int
	// Truncated reports that the search stopped early because its context
	// was cancelled or its deadline fired; the results are the best found
	// so far, not the full beam-search answer.
	Truncated bool
}

// cancelCheckEvery is how many hop expansions pass between context
// checks: frequent enough that a cancelled search stops within
// microseconds, rare enough that the check is invisible in the profile.
const cancelCheckEvery = 32

// Searcher holds reusable per-goroutine scratch for beam searches over one
// graph. It is not safe for concurrent use; create one per worker.
type Searcher struct {
	g       *Graph
	visited *minheap.Visited
	cand    *minheap.Min
	results *minheap.Bounded

	// pool collects every live scored vertex during a pooled search (the
	// compressed seam's rerank candidates); nil until the first pooled
	// search asks for one.
	pool *minheap.Bounded

	// full is the full-precision Scorer, prepared per search in place so
	// handing it to the beam as an interface allocates nothing.
	full fullScorer

	// gatherIDs/gatherD are the batched-scoring scratch: per hop, the
	// unvisited neighbors of the expanded vertex are gathered into
	// gatherIDs and scored with one batch call into gatherD before heap
	// admission. Sized to the largest out-degree seen, reused across hops
	// and searches.
	gatherIDs []uint32
	gatherD   []float32

	// CollectVisited, when true, records every vertex whose distance was
	// evaluated during the search, in evaluation order. RFix uses this to
	// approximate the extended candidate neighbor set without a brute-force
	// scan (§5.4).
	CollectVisited bool
	Visited        []Result
}

// NewSearcher returns a searcher bound to g.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{
		g:       g,
		visited: minheap.NewVisited(g.Len()),
		cand:    minheap.NewMin(256),
		results: minheap.NewBounded(16),
	}
}

// Search runs Algorithm 1 from the graph's default entry point and returns
// the k closest live vertices found with search-list size L (L is clamped
// up to k).
func (s *Searcher) Search(q []float32, k, L int) ([]Result, Stats) {
	return s.SearchFrom(q, k, L, s.g.EntryPoint)
}

// SearchCtx is Search with cooperative cancellation; see SearchFromCtx.
func (s *Searcher) SearchCtx(ctx context.Context, q []float32, k, L int) ([]Result, Stats) {
	return s.SearchFromCtx(ctx, q, k, L, s.g.EntryPoint)
}

// SearchFrom is Search with an explicit entry vertex; it never truncates.
func (s *Searcher) SearchFrom(q []float32, k, L int, entry uint32) ([]Result, Stats) {
	return s.SearchFromCtx(nil, q, k, L, entry)
}

// SearchFromCtx is the paper's Algorithm 1 (greedy / beam search) over
// full-precision distances with cooperative cancellation, returning the k
// closest live vertices found with search-list size L (clamped up to k).
// Stats.NDC counts the distance evaluations.
//
// ctx (nil means never cancelled) is polled every cancelCheckEvery hop
// expansions; when it is cancelled or past its deadline the search stops
// where it stands and returns the best results found so far with
// Stats.Truncated set — a client that disconnects or a server budget that
// expires costs at most a few more hops, never a full search.
func (s *Searcher) SearchFromCtx(ctx context.Context, q []float32, k, L int, entry uint32) ([]Result, Stats) {
	if s.g.Len() == 0 {
		return nil, Stats{}
	}
	if L < k {
		L = k
	}
	// The distancer is prepared once per search: metric dispatch and (for
	// cosine) the query norm are hoisted out of the loop, and the graph's
	// row-norm cache kills the per-evaluation row-norm recomputation.
	s.full = fullScorer{qd: vec.NewQueryDistancer(s.g.Metric, q, s.g.norms), m: s.g.Vectors}
	st, scored := s.beam(ctx, &s.full, L, 0, entry)
	st.NDC = scored
	return sortedResults(s.results, k), st
}

// beam is the one Algorithm 1 loop every search runs: a candidate
// min-heap seeded with entry, a bounded result set of size L; each step
// expands the closest unexpanded candidate and stops when that candidate
// is farther than the worst result. sc scores vertices. A positive pool
// also collects every live scored vertex into s.pool, bounded at pool —
// the rerank candidates of a compressed search. The two bounds are
// independent: a pool larger than L must not widen the beam, and one
// smaller than L must not cut the search short. L and pool are clamped
// to the graph size, beyond which a list cannot grow. It returns hops and
// truncation in st and the number of vertices scored, which the caller
// books as NDC or ADC lookups.
func (s *Searcher) beam(ctx context.Context, sc Scorer, L, pool int, entry uint32) (st Stats, scored int64) {
	g := s.g
	n := g.Len()
	L = max(1, min(L, n))
	s.visited.Grow(n)
	s.visited.Reset()
	s.cand.Reset()
	s.results.Reset(L)
	var rerank *minheap.Bounded
	if pool > 0 {
		pool = min(pool, n)
		if s.pool == nil {
			s.pool = minheap.NewBounded(pool)
		} else {
			s.pool.Reset(pool)
		}
		rerank = s.pool
	}
	if s.CollectVisited {
		s.Visited = s.Visited[:0]
	}

	// Tombstoned vertices follow the paper's lazy-delete semantics: they
	// are navigated through (candidate heap) but never occupy a result or
	// pool slot, so heavy tombstoning cannot crowd live answers out of the
	// search list.
	entryDist := sc.ScoreID(entry)
	scored++
	s.visited.Visit(entry)
	if s.CollectVisited {
		s.Visited = append(s.Visited, Result{ID: entry, Dist: entryDist})
	}
	s.cand.Push(minheap.Item{ID: entry, Dist: entryDist})
	if !g.deleted[entry] {
		s.results.Push(minheap.Item{ID: entry, Dist: entryDist})
		if rerank != nil {
			rerank.Push(minheap.Item{ID: entry, Dist: entryDist})
		}
	}

	for s.cand.Len() > 0 {
		if ctx != nil && st.Hops%cancelCheckEvery == 0 && ctx.Err() != nil {
			st.Truncated = true
			break
		}
		cur := s.cand.Pop()
		if worst, ok := s.results.MaxDist(); ok && s.results.Full() && cur.Dist > worst {
			break
		}
		st.Hops++

		// Score in batches: gather the unvisited neighbors of the expanded
		// vertex (base + extra edges), score them with one batch call — a
		// linear scan over row-major memory — then do heap admission in
		// gather order. Admission order, visited semantics, and the scored
		// count are identical to evaluating one neighbor at a time: the
		// only difference is that scores whose WouldAccept check fails are
		// computed before the check instead of inline, and the seed loop
		// computed those scores too.
		ids := s.gatherIDs[:0]
		for _, v := range g.base[cur.ID] {
			if !s.visited.Visit(v) {
				ids = append(ids, v)
			}
		}
		for _, e := range g.extra[cur.ID] {
			if !s.visited.Visit(e.To) {
				ids = append(ids, e.To)
			}
		}
		s.gatherIDs = ids
		if len(ids) == 0 {
			continue
		}
		if cap(s.gatherD) < len(ids) {
			s.gatherD = make([]float32, len(ids)+16)
		}
		dists := s.gatherD[:len(ids)]
		sc.ScoreIDs(ids, dists)
		scored += int64(len(ids))

		for i, v := range ids {
			d := dists[i]
			if s.CollectVisited {
				s.Visited = append(s.Visited, Result{ID: v, Dist: d})
			}
			if rerank != nil && !g.deleted[v] {
				// Every live scored vertex is a rerank candidate, whether or
				// not it makes the beam: the pool sees strictly more of the
				// compressed ranking than the beam retains.
				rerank.Push(minheap.Item{ID: v, Dist: d})
			}
			if s.results.WouldAccept(d) {
				s.cand.Push(minheap.Item{ID: v, Dist: d})
				if !g.deleted[v] {
					s.results.Push(minheap.Item{ID: v, Dist: d})
				}
			}
		}
	}
	return st, scored
}

// sortedResults drains h in ascending order, keeping at most k results.
func sortedResults(h *minheap.Bounded, k int) []Result {
	items := h.SortedAscending()
	if len(items) > k {
		items = items[:k]
	}
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, Dist: it.Dist}
	}
	return out
}

// IDs extracts the vertex ids from results.
func IDs(rs []Result) []uint32 {
	ids := make([]uint32, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}
