package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	"ngfix/internal/bruteforce"
	"ngfix/internal/dataset"
	"ngfix/internal/server"
	"ngfix/internal/vec"
)

// Input sizes shared by every workload.
const (
	baseRows    = 20000
	dim         = 128
	histRows    = 1000
	poolRows    = 2048 // distinct queries per modality
	k           = 10
	datasetSeed = 102
	searchEF    = 64 // explicit ef of churn and pq-tier
	zipfS       = 0.7
	churnOps    = 1 << 15 // length of churn's request sequence, cycled
)

// inputs are everything a workload sends, generated from the seed. The
// program under test sees only the vectors.
type inputs struct {
	base    *vec.Matrix
	hist    *vec.Matrix
	queries *vec.Matrix             // query pool; rows [0,oodRows) are OOD
	oodRows int                     // OOD queries come first in the pool
	truth   [][]bruteforce.Neighbor // exact top-k over the base set, per pool row
	bodies  [][]byte                // pre-encoded /v1/search bodies, per pool row
	inserts *vec.Matrix             // vectors to insert, in order
	seq     []int32                 // pool row of the i-th search
	ops     []request               // churn: the i-th request, cycled
}

// op is a request type.
type op uint8

const (
	opSearch op = iota
	opInsert
	opDelete
)

// request is one churn request: its type and, for searches, the pool
// row.
type request struct {
	op  op
	row int32
}

func makeInputs(wl workload, seed int64) *inputs {
	// The indexed data is the same in every run, so set-up does the same
	// work; the seed draws the traffic from the dataset's distributions.
	ds := dataset.Generate(dataset.Config{
		Name: "perfbench", N: baseRows, NHist: histRows,
		Dim: dim, Clusters: 32, Metric: vec.Cosine,
		GapMagnitude: 2.0, ClusterStd: 0.2, QueryStdScale: 1.8,
		Normalize: true, Seed: datasetSeed,
	})
	in := &inputs{base: ds.Base, hist: ds.History, queries: ds.MoreQueries(poolRows, true, seed), oodRows: poolRows}
	if wl.policy {
		// The distinct set mixes OOD and in-distribution queries.
		for i, id := 0, ds.MoreQueries(poolRows, false, seed+1); i < poolRows; i++ {
			in.queries.Append(id.Row(i))
		}
	}
	in.truth = bruteforce.AllKNN(in.base, in.queries, vec.Cosine, k)
	in.bodies = make([][]byte, in.queries.Rows())
	for i := range in.bodies {
		req := server.SearchRequest{Vector: in.queries.Row(i), K: server.IntPtr(k)}
		if wl.explicitEF {
			req.EF = server.IntPtr(searchEF)
		}
		in.bodies[i], _ = json.Marshal(req)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	if wl.policy {
		in.seq = zipfSequence(rng, in.queries.Rows(), 1<<20)
	} else {
		in.seq = make([]int32, in.queries.Rows())
		for i, p := range rng.Perm(len(in.seq)) {
			in.seq[i] = int32(p)
		}
	}
	// Inserted vectors come from the base distribution.
	n := insertProbe
	if wl.writes {
		in.ops = churnSequence(rng, churnOps, in.queries.Rows())
		n += preloadInserts
		for _, r := range in.ops {
			if r.op == opInsert {
				n++
			}
		}
	}
	in.inserts = ds.MoreQueries(n, false, seed+2)
	return in
}

// churnSequence draws n requests: 88% searches of uniformly drawn pool
// rows, 10% inserts, 2% deletes.
func churnSequence(rng *rand.Rand, n, rows int) []request {
	out := make([]request, n)
	for i := range out {
		r := request{row: int32(rng.Intn(rows))}
		switch u := rng.Float64(); {
		case u < 0.88:
			r.op = opSearch
		case u < 0.98:
			r.op = opInsert
		default:
			r.op = opDelete
		}
		out[i] = r
	}
	return out
}

// zipfSequence draws n pool rows with Zipf(zipfS) popularity; the
// popularity ranks are a seeded permutation of the rows, so hot queries
// are a mix of both modalities.
func zipfSequence(rng *rand.Rand, rows, n int) []int32 {
	cdf := make([]float64, rows)
	sum := 0.0
	for r := 0; r < rows; r++ {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = sum
	}
	perm := rng.Perm(rows)
	out := make([]int32, n)
	for i := range out {
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if r >= rows {
			r = rows - 1
		}
		out[i] = int32(perm[r])
	}
	return out
}
