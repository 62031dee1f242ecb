package graph

import (
	"context"

	"ngfix/internal/vec"
)

// Scorer is the scoring seam of the beam loop. A Scorer is prepared once
// per query (full-precision distances, or e.g. a PQ ADC lookup table) and
// then scores gathered neighbor batches — the same batch shape the SIMD
// kernels stream, over floats or over code bytes.
//
// Scores must be comparable to each other (smaller is closer) but need
// not equal the metric's true distances; searches that navigate on a
// compressed Scorer rerank their final candidates exactly.
type Scorer interface {
	// ScoreIDs writes the score of vertex ids[i] into out[i]; out has at
	// least len(ids) entries.
	ScoreIDs(ids []uint32, out []float32)
	// ScoreID scores a single vertex (entry-point seeding).
	ScoreID(id uint32) float32
}

// fullScorer is the full-precision Scorer: the metric's true distances
// through a prepared vec.QueryDistancer.
type fullScorer struct {
	qd vec.QueryDistancer
	m  *vec.Matrix
}

func (f *fullScorer) ScoreID(id uint32) float32 { return f.qd.RowDistance(f.m, id) }

func (f *fullScorer) ScoreIDs(ids []uint32, out []float32) { f.qd.RowDistances(f.m, ids, out) }

// SearchScoredPoolCtx runs the beam with scoring delegated to sc, bounded
// at L exactly as the full-precision search is, so L buys the same
// navigation/quality trade-off in both domains. Every live vertex it
// scores is collected into a separate bounded pool of size pool, returned
// in ascending score order — the compressed-domain best candidates, ready
// for exact reranking by the caller. Stats.ADCLookups counts the scoring
// work (Stats.NDC stays zero: no full-precision distance is evaluated
// here). ctx is polled as in SearchFromCtx.
func (s *Searcher) SearchScoredPoolCtx(ctx context.Context, sc Scorer, L, pool int, entry uint32) ([]Result, Stats) {
	if s.g.Len() == 0 {
		return nil, Stats{}
	}
	pool = max(pool, 1)
	st, scored := s.beam(ctx, sc, L, pool, entry)
	st.ADCLookups = scored
	return sortedResults(s.pool, pool), st
}
