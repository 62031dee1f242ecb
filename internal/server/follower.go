package server

import (
	"errors"
	"fmt"
	"net/http"

	"ngfix/internal/obs"
	"ngfix/internal/replica"
)

// Follower serves a replica-only node: a process started with
// -replica-of that holds no primaries, just one read replica per shard
// of some leader. It speaks the same /v1/search request and response
// shapes as the full server so clients and load balancers need no
// special casing — every answer simply carries "stale": true, because a
// follower's answers are by construction as fresh as its replication
// position, not the leader's.
//
// Mutations have no route here (404): a follower's state is the
// leader's WAL, nothing else, which is what keeps it bit-identical and
// makes failing over to it safe. Everything the two servers share —
// middleware, decoding, k/ef validation, JSON writers, /healthz and
// /metrics serving — is the leader's own code; only the backend, the
// stale flag, /v1/stats and /readyz differ.
//
//	POST /v1/search   — read-only scatter over the shard replicas
//	GET  /v1/stats    — per-shard replica status (generation, lag, errors)
//	GET  /healthz     — 200 while the process runs
//	GET  /readyz      — 503 until every shard replica is bootstrapped and
//	                    within its configured lag bound
//	GET  /metrics     — ngfix_replica_* families, shard-labeled
type Follower struct {
	// front carries the plumbing shared with the leader and the
	// DefaultK, DefaultEF, Logger and MaxBodyBytes settings.
	front
	set         *replica.Set
	metricsRegs []*obs.Registry
}

// NewFollower builds a follower server over a replica set. The caller
// drives the set (Set.Run) separately.
func NewFollower(set *replica.Set) *Follower {
	f := &Follower{front: newFront(), set: set}
	f.mux.HandleFunc("/v1/search", f.method(http.MethodPost, f.handleSearch))
	f.mux.HandleFunc("/v1/stats", f.method(http.MethodGet, f.handleStats))
	f.mux.HandleFunc("/healthz", f.method(http.MethodGet, f.handleHealthz))
	f.mux.HandleFunc("/readyz", f.method(http.MethodGet, f.handleReadyz))
	f.mux.HandleFunc("/metrics", f.method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		f.serveMetrics(w, r, f.metricsRegs)
	}))
	return f
}

// EnableMetrics makes GET /metrics serve the merged exposition of the
// given registries (the caller registers each replica's families on a
// shard-labeled registry first).
func (f *Follower) EnableMetrics(regs ...*obs.Registry) { f.metricsRegs = regs }

func (f *Follower) handleSearch(w http.ResponseWriter, r *http.Request) {
	dim := f.set.Dim()
	if dim == 0 {
		// No shard has bootstrapped: there is nothing to validate against,
		// let alone search.
		f.httpError(w, http.StatusServiceUnavailable, errors.New("replica not bootstrapped yet"))
		return
	}
	req, k, ef, ok := f.decodeSearch(w, r, dim, f.set.Len())
	if !ok {
		return
	}
	res, st := f.set.SearchCtx(r.Context(), req.Vector, k, ef)
	f.writeJSON(w, SearchResponse{
		NDC: st.NDC, Truncated: st.Truncated,
		EFUsed: ef, Stale: true,
		Results: searchHits(res),
	})
}

// FollowerStatsResponse is the follower's /v1/stats reply: replication
// state only, because replication state is all a follower has.
type FollowerStatsResponse struct {
	Shards  int              `json:"shards"`
	Ready   bool             `json:"ready"`
	Replica []replica.Status `json:"replica"`
}

func (f *Follower) handleStats(w http.ResponseWriter, r *http.Request) {
	f.writeJSON(w, FollowerStatsResponse{
		Shards:  f.set.Shards(),
		Ready:   f.set.Ready(),
		Replica: f.set.Statuses(),
	})
}

func (f *Follower) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, st := range f.set.Statuses() {
		if !st.Ready {
			why := "bootstrapping"
			if st.Generation > 0 {
				why = fmt.Sprintf("lagging (%d bytes, %d generations behind)", st.Lag.Bytes, st.Lag.Generations)
			}
			f.httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("shard %d replica %s", st.Shard, why))
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
