package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ngfix/internal/admission"
	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/obs"
	"ngfix/internal/persist"
	"ngfix/internal/policy"
	"ngfix/internal/pq"
	"ngfix/internal/repair"
	"ngfix/internal/server"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// Serving-stack settings. Unless noted they are the defaults of
// cmd/ngfix-server's flags, so the benchmark measures what an operator
// gets without tuning.
const (
	numShards   = 2
	hnswM       = 16   // -m
	hnswEFC     = 200  // -efc
	lex         = 48   // -lex
	fixBatch    = 8    // -fix-batch; the default is 128
	snapOps     = 4096 // -snapshot-ops
	maxInflight = 64   // -max-inflight
	pqKS        = 64   // -pq-ks
	pqRerank    = 4    // -pq-rerank

	// NGFix preprocessing as cmd/ngfix-build runs it: approximate truth
	// at -prep-ef over 2×K1 neighbours, then the two default rounds.
	prepEF = 200
	prepK  = 60

	// -snapshot-every, scaled with the fix batch: the defaults (8 batches
	// of 128) snapshot after 1,024 fixed queries, and so does this. At
	// -snapshot-every 8 with 8-query batches a shard would snapshot 16
	// times as often per fixed query, every few seconds on churn.
	snapEvery = 8 * 128 / fixBatch

	// Workload-specific settings (the server default for each is off).
	cacheEntries   = 1024        // repeat-policy: -answer-cache-size
	repairInterval = time.Second // churn: -fix-interval
)

// stack is one assembled serving stack listening on loopback.
type stack struct {
	dir      string
	stores   []*persist.Store
	fixers   []*core.OnlineFixer
	group    *shard.Group
	srv      *server.Server
	eng      *policy.Engine
	fleet    *repair.Fleet
	quants   []*pq.Quantizer
	httpSrv  *http.Server
	url      string
	served   chan error
	stopRep  context.CancelFunc
	repDone  chan struct{}
	buildDur time.Duration // HNSW + NGFix, wall time of the concurrent shard builds
	trainDur time.Duration // PQ training, summed over shards
}

// assemble builds the production serving stack over base from the same
// public constructors cmd/ngfix-server's run() uses: per-shard fsyncing
// persist stores, HNSW base graphs fixed by NGFix with the historical
// queries, one OnlineFixer per shard, the shard group, admission, the
// policy engine, the repair fleet and the server, served on 127.0.0.1.
// It returns once /readyz answers 200. spans, when non-nil, wraps every
// store in a timing WAL and the server in a timing handler.
func assemble(wl workload, dir string, base, hist *vec.Matrix, spans *spanLog) (*stack, error) {
	st := &stack{dir: dir}
	stores, err := persist.OpenShardedAt(dir, numShards, 0, persist.Options{})
	if err != nil {
		return nil, fmt.Errorf("open stores: %w", err)
	}
	st.stores = stores

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	shardRegs := make([]*obs.Registry, numShards)
	for i := range shardRegs {
		shardRegs[i] = obs.NewRegistry(obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		stores[i].RegisterMetrics(shardRegs[i])
	}

	// Shards are built concurrently: each is independent, and the
	// benchmark's run budget cannot afford them one after the other.
	parts := shard.Partition(base, numShards)
	ixs := make([]*core.Index, numShards)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := hnsw.Build(parts[i], hnsw.Config{M: hnswM, EFConstruction: hnswEFC, Metric: vec.Cosine, Seed: 7}).Bottom()
			ix := core.New(g, core.Options{LEx: lex})
			ix.Fix(hist, ix.ApproxTruth(hist, prepK, prepEF))
			ixs[i] = ix
		}(i)
	}
	wg.Wait()
	st.buildDur = time.Since(t0)

	st.fixers = make([]*core.OnlineFixer, numShards)
	for i, ix := range ixs {
		var wal core.WAL = stores[i]
		if spans != nil {
			wal = &tracedWAL{st: stores[i], shard: i, spans: spans}
		}
		st.fixers[i] = core.NewOnlineFixer(ix, core.OnlineConfig{
			BatchSize: fixBatch, SampleEvery: 1,
			WAL:                  wal,
			SnapshotEveryBatches: snapEvery, SnapshotEveryMutations: snapOps,
			Metrics: shardRegs[i],
		})
	}

	if wl.pq {
		for i, f := range st.fixers {
			qcfg, err := pq.DefaultConfig(base.Dim())
			if err != nil {
				return st, err
			}
			qcfg.KS = pqKS
			t0 := time.Now()
			q, err := pq.Train(ixs[i].G.Vectors, qcfg)
			if err != nil {
				return st, fmt.Errorf("shard %d: train pq: %w", i, err)
			}
			st.trainDur += time.Since(t0)
			pcfg := core.PQConfig{KS: pqKS, RerankFactor: pqRerank, TierPath: filepath.Join(stores[i].Dir(), "vectors.tier")}
			if err := f.AttachPQ(q, pcfg); err != nil {
				return st, fmt.Errorf("shard %d: attach pq: %w", i, err)
			}
			st.quants = append(st.quants, q)
		}
	}

	// The first durable generation, sealed before serving as run() does.
	for i, f := range st.fixers {
		if err := f.Snapshot(); err != nil {
			return st, fmt.Errorf("shard %d: initial snapshot: %w", i, err)
		}
	}
	group, err := shard.NewGroup(st.fixers)
	if err != nil {
		return st, err
	}
	st.group = group
	s := server.NewSharded(group)
	s.SnapshotFunc = func() error { return s.Group().Snapshot() }
	s.SetStores(stores)
	s.Admission = admission.New(admission.Config{Capacity: maxInflight})
	s.SearchTimeout = 2 * time.Second
	st.srv = s

	if wl.policy {
		adaptive := policy.NewAdaptive(group.Dim(), policy.AdaptiveConfig{Metric: vec.Cosine, Seed: 11},
			func(q []float32, k, ef int) []graph.Result {
				res, _ := s.Group().SearchCtx(context.Background(), q, k, ef, 1)
				return res
			})
		augmenter := policy.NewAugmenter(policy.AugmentConfig{Sigma: 0.3, Normalize: true, Seed: 13})
		adm := s.Admission
		st.eng = policy.NewEngine(policy.NewCache(cacheEntries), adaptive, augmenter,
			func(qs *vec.Matrix) int { return s.Group().RecordSynthetic(qs) },
			func() (func(), bool) { return adm.TryAcquire(adm.FixCost(1)) })
		s.EnablePolicy(st.eng)
	}

	if wl.repair {
		ctls := make([]*repair.Controller, numShards)
		for i := range ctls {
			ctls[i] = repair.New(i, group.Fixer(i), s.Admission, repair.Config{
				Interval: repairInterval, ThetaHi: 0.3, ThetaLo: 0.1, Dwell: 5 * time.Second, MinBatch: 8,
			})
			ctls[i].RegisterMetrics(shardRegs[i])
		}
		st.fleet = repair.NewFleet(ctls...)
		s.SetRepair(st.fleet)
	}
	s.EnableMetrics(reg, shardRegs...)

	var handler http.Handler = s
	if spans != nil {
		handler = &tracingHandler{next: s, spans: spans}
	}
	if st.fleet != nil {
		ctx, cancel := context.WithCancel(context.Background())
		st.stopRep, st.repDone = cancel, make(chan struct{})
		go func() {
			defer close(st.repDone)
			st.fleet.Run(ctx, nil)
		}()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.httpSrv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	st.url = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	s.SetReady(true)
	return st, waitReady(st.url)
}

// waitReady polls /readyz until it answers 200.
func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("server never became ready")
}

// shutdown stops repair, drains the listener and closes the stores
// without a final snapshot, so recovery has to replay the op logs.
func (st *stack) shutdown() error {
	var errs []error
	st.stopRepair()
	if st.httpSrv != nil {
		st.srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		st.httpSrv = nil
	}
	for _, f := range st.fixers {
		if f != nil {
			errs = append(errs, f.ClosePQ())
		}
	}
	for _, s := range st.stores {
		errs = append(errs, s.Close())
	}
	st.stores = nil
	return errors.Join(errs...)
}

// stopRepair stops the repair fleet and waits for it; a no-op when it
// is not running.
func (st *stack) stopRepair() {
	if st.stopRep != nil {
		st.stopRep()
		<-st.repDone
		st.stopRep = nil
	}
}

// recovery is what reopening the stores with shard.Recover gave back.
type recovery struct {
	seconds  float64
	replayed int
	problems []string
}

// recoverAndCheck reopens the stack's directory, runs shard.Recover and
// checks every acknowledged insert reads back bit-identical at its id
// and every acknowledged delete is still tombstoned.
func recoverAndCheck(dir string, baseRows int, inserted map[uint32][]float32, deleted []uint32) recovery {
	var rec recovery
	stores, err := persist.OpenShardedAt(dir, numShards, 0, persist.Options{})
	if err != nil {
		rec.problems = append(rec.problems, "reopen stores: "+err.Error())
		return rec
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	t0 := time.Now()
	ixs, replayed, err := shard.Recover(stores, core.Options{LEx: lex})
	rec.seconds = time.Since(t0).Seconds()
	if err != nil {
		rec.problems = append(rec.problems, "recover: "+err.Error())
		return rec
	}
	for _, n := range replayed {
		rec.replayed += n
	}
	router := shard.NewRouter(numShards)
	total := 0
	for _, ix := range ixs {
		total += ix.G.Len()
	}
	if want := baseRows + len(inserted); total != want {
		rec.problems = append(rec.problems, fmt.Sprintf("recovered %d vectors, want %d", total, want))
	}
	for id, v := range inserted {
		g := ixs[router.ShardOf(id)].G
		local := router.Local(id)
		if int(local) >= g.Len() {
			rec.problems = append(rec.problems, fmt.Sprintf("acknowledged insert %d missing after recovery", id))
			continue
		}
		got := g.Vectors.Row(int(local))
		for j := range v {
			if got[j] != v[j] {
				rec.problems = append(rec.problems, fmt.Sprintf("acknowledged insert %d differs after recovery", id))
				break
			}
		}
	}
	for _, id := range deleted {
		g := ixs[router.ShardOf(id)].G
		if local := router.Local(id); int(local) >= g.Len() || !g.IsDeleted(local) {
			rec.problems = append(rec.problems, fmt.Sprintf("acknowledged delete %d not tombstoned after recovery", id))
		}
	}
	return rec
}
