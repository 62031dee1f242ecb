package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ngfix/internal/server"
	"ngfix/internal/shard"
	"ngfix/internal/vec"
)

// loadgen sends a workload's requests to one stack over loopback and
// checks every answer.
type loadgen struct {
	wl    workload
	in    *inputs
	st    *stack
	hc    *http.Client
	epoch time.Time

	spans *spanLog // nil when the run is not traced

	nextReq atomic.Uint64
	seqPos  atomic.Uint64 // next position in in.seq or in.ops
	seen    []atomic.Bool // pool rows sent at least once (warm-up included)

	// Write history for the churn checks and the recovery check.
	mu          sync.Mutex
	inserts     []writeEvent
	deletes     []writeEvent
	livePool    []uint32          // acknowledged inserted ids not yet targeted by a delete
	nextInsert  int               // next row of in.inserts
	insertedRow map[uint32]int    // acknowledged inserted id -> row of in.inserts
	walKeys     map[uint64]uint64 // traced write request id -> its WAL span key
}

// writeEvent is one insert or delete as the client saw it.
type writeEvent struct {
	send, ack int64 // ns since epoch; ack 0 until acknowledged
	id        uint32
	row       int // insert: row of in.inserts
}

func newLoadgen(wl workload, in *inputs, st *stack, epoch time.Time) *loadgen {
	return &loadgen{
		wl: wl, in: in, st: st, epoch: epoch,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: wl.clients, MaxConnsPerHost: wl.clients, DisableCompression: true,
		}},
		seen:        make([]atomic.Bool, in.queries.Rows()),
		insertedRow: map[uint32]int{},
		walKeys:     map[uint64]uint64{},
	}
}

func (d *loadgen) now() int64 { return int64(time.Since(d.epoch)) }

// post sends one request and reads the whole reply. The client span (in
// the traced window) covers send through the last body byte.
func (d *loadgen) post(req uint64, path string, body []byte) (status int, reply []byte, send, recv int64, err error) {
	hreq, err := http.NewRequest(http.MethodPost, d.st.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if d.spans.active() {
		hreq.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	}
	send = d.now()
	resp, err := d.hc.Do(hreq)
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	recv = d.now()
	d.spans.add(span{Req: req, Name: "client" + path, Start: send, End: recv})
	return status, reply, send, recv, err
}

// stats reads /v1/stats.
func (d *loadgen) stats() (server.StatsResponse, error) {
	var s server.StatsResponse
	resp, err := d.hc.Get(d.st.url + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// tally accumulates one window's outcomes. Workers fill their own and
// merge at the end.
type tally struct {
	searchMS             []float64
	searchAt, answeredAt []int64 // send times of searchMS and of answered searches

	attempted, failed int // failed: transport error, non-200 or truncated
	answered          int // searches answered 200 and not truncated
	wrong             int // answered, but the answer failed a check
	problems          []string

	recallSum        float64
	recallN          int
	efUsedSum        float64
	cacheHits        int
	repeats, ood     int
	searches, writes int
	reqBytes         int64
	respBytes        int64

	churn []searchRec // answers checked after the window
}

// searchRec is a churn search kept for the after-window checks.
type searchRec struct {
	row        int32
	send, recv int64
	hits       []server.SearchHit
}

const maxProblems = 20

func (t *tally) problem(format string, args ...interface{}) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.searchMS = append(t.searchMS, o.searchMS...)
	t.answered += o.answered
	t.searchAt = append(t.searchAt, o.searchAt...)
	t.answeredAt = append(t.answeredAt, o.answeredAt...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, p := range o.problems {
		t.problem("%s", p)
	}
	t.recallSum += o.recallSum
	t.recallN += o.recallN
	t.efUsedSum += o.efUsedSum
	t.cacheHits += o.cacheHits
	t.repeats += o.repeats
	t.ood += o.ood
	t.searches += o.searches
	t.writes += o.writes
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
	t.churn = append(t.churn, o.churn...)
}

// search sends pool row's query.
func (d *loadgen) search(t *tally, row int32) {
	t.attempted++
	t.searches++
	if d.seen[row].Swap(true) {
		t.repeats++
	}
	if int(row) < d.in.oodRows {
		t.ood++
	}
	body := d.in.bodies[row]
	req := d.nextReq.Add(1)
	status, reply, send, recv, err := d.post(req, "/v1/search", body)
	t.searchMS = append(t.searchMS, float64(recv-send)/1e6)
	t.searchAt = append(t.searchAt, send)
	t.reqBytes += int64(len(body))
	t.respBytes += int64(len(reply))
	var resp server.SearchResponse
	if !d.okReply(t, "search", status, reply, err, &resp) {
		return
	}
	if resp.Truncated {
		t.failed++
		t.problem("search row %d: truncated answer", row)
		return
	}
	t.answered++
	t.answeredAt = append(t.answeredAt, send)
	t.efUsedSum += float64(resp.EFUsed)
	if resp.Policy == "cache_hit" {
		t.cacheHits++
	}
	if d.wl.writes {
		// Checked after the window, once every insert's id is known.
		t.churn = append(t.churn, searchRec{row: row, send: send, recv: recv, hits: resp.Results})
	} else if d.checkShape(t, row, resp.Results) {
		t.recallSum += recallOf(resp.Results, d.in.truth[row], nil)
		t.recallN++
	}
	if d.spans.active() && t.searches%probeEvery == 0 {
		d.probe(req, row, body, &resp)
	}
}

// okReply counts a transport error or non-200 as failed and decodes the
// reply into out otherwise.
func (d *loadgen) okReply(t *tally, what string, status int, reply []byte, err error, out interface{}) bool {
	switch {
	case err != nil:
		t.failed++
		t.problem("%s: %v", what, err)
		return false
	case status != http.StatusOK:
		t.failed++
		t.problem("%s: status %d: %s", what, status, bytes.TrimSpace(reply))
		return false
	}
	if err := json.Unmarshal(reply, out); err != nil {
		t.failed++
		t.problem("%s: bad reply: %v", what, err)
		return false
	}
	return true
}

// checkShape checks an answer has at most k unique ids, each of a
// stored vector, sorted by distance, each distance matching the
// vector's exact distance to the query.
func (d *loadgen) checkShape(t *tally, row int32, hits []server.SearchHit) bool {
	q := d.in.queries.Row(int(row))
	if len(hits) > k || len(hits) == 0 {
		t.wrong++
		t.problem("search row %d: %d results", row, len(hits))
		return false
	}
	seen := make(map[uint32]bool, len(hits))
	for i, h := range hits {
		v := d.vector(h.ID)
		switch {
		case seen[h.ID]:
			t.wrong++
			t.problem("search row %d: duplicate id %d", row, h.ID)
			return false
		case v == nil:
			t.wrong++
			t.problem("search row %d: id %d out of range", row, h.ID)
			return false
		case i > 0 && h.Dist < hits[i-1].Dist:
			t.wrong++
			t.problem("search row %d: results not sorted by distance", row)
			return false
		case math.Abs(float64(vec.CosineDistance(q, v)-h.Dist)) > 1e-3:
			t.wrong++
			t.problem("search row %d: id %d reported at distance %g, exact %g", row, h.ID, h.Dist, vec.CosineDistance(q, v))
			return false
		}
		seen[h.ID] = true
	}
	return true
}

// vector returns the vector stored at global id, or nil when neither
// the base set nor an acknowledged insert has that id.
func (d *loadgen) vector(id uint32) []float32 {
	if int(id) < baseRows {
		return d.in.base.Row(int(id))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if row, ok := d.insertedRow[id]; ok {
		return d.in.inserts.Row(row)
	}
	return nil
}

// recallOf is |answer ∩ truth| / |truth| over the truth's first k ids,
// ignoring ids in skip.
func recallOf(hits []server.SearchHit, truth []neighbor, skip map[uint32]bool) float64 {
	want := map[uint32]bool{}
	for _, n := range truth {
		if len(want) == k {
			break
		}
		if !skip[n.ID] {
			want[n.ID] = true
		}
	}
	if len(want) == 0 {
		return 1
	}
	got := 0
	for _, h := range hits {
		if want[h.ID] {
			got++
		}
	}
	return float64(got) / float64(len(want))
}

// insert sends the next row of in.inserts and records the
// acknowledgement.
func (d *loadgen) insert(t *tally) {
	t.attempted++
	t.writes++
	d.mu.Lock()
	row := d.nextInsert % d.in.inserts.Rows() // churn cycles in.ops on long windows
	d.nextInsert++
	ev := len(d.inserts)
	d.inserts = append(d.inserts, writeEvent{row: row})
	d.mu.Unlock()
	v := d.in.inserts.Row(row)
	body, _ := json.Marshal(server.InsertRequest{Vector: v})
	req := d.nextReq.Add(1)
	if d.spans.active() {
		d.mu.Lock()
		d.walKeys[req] = vectorKey(v)
		d.mu.Unlock()
	}
	status, reply, send, recv, err := d.post(req, "/v1/insert", body)
	var resp server.InsertResponse
	ok := d.okReply(t, "insert", status, reply, err, &resp)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inserts[ev].send = send
	if !ok {
		return
	}
	if resp.ID < baseRows {
		t.wrong++
		t.problem("insert acknowledged with base id %d", resp.ID)
		return
	}
	if _, dup := d.insertedRow[resp.ID]; dup {
		t.wrong++
		t.problem("insert acknowledged with reused id %d", resp.ID)
		return
	}
	d.inserts[ev].id, d.inserts[ev].ack = resp.ID, recv
	d.insertedRow[resp.ID] = row
	d.livePool = append(d.livePool, resp.ID)
}

// remove deletes the oldest acknowledged insert no delete has targeted;
// with none available it sends a search instead and reports false.
func (d *loadgen) remove(t *tally) bool {
	d.mu.Lock()
	if len(d.livePool) == 0 {
		d.mu.Unlock()
		return false
	}
	id := d.livePool[0]
	d.livePool = d.livePool[1:]
	ev := len(d.deletes)
	d.deletes = append(d.deletes, writeEvent{id: id})
	d.mu.Unlock()
	t.attempted++
	t.writes++
	body, _ := json.Marshal(server.DeleteRequest{ID: id})
	req := d.nextReq.Add(1)
	if d.spans.active() {
		d.mu.Lock()
		r := shard.NewRouter(numShards)
		d.walKeys[req] = deleteKey(r.ShardOf(id), r.Local(id))
		d.mu.Unlock()
	}
	status, reply, send, recv, err := d.post(req, "/v1/delete", body)
	var resp server.DeleteResponse
	ok := d.okReply(t, "delete", status, reply, err, &resp)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deletes[ev].send = send
	if ok && !resp.Deleted {
		t.wrong++
		t.problem("delete of live id %d answered deleted=false", id)
		ok = false
	}
	if ok {
		d.deletes[ev].ack = recv
	}
	return true
}

// closedLoop runs the workload's clients, each sending its next request as soon
// as the previous one is answered, for dur: searches in in.seq order,
// or on churn the requests of in.ops.
func (d *loadgen) closedLoop(dur time.Duration) *tally {
	deadline := time.Now().Add(dur)
	return d.workers(func(t *tally) {
		for time.Now().Before(deadline) {
			i := d.seqPos.Add(1) - 1
			if !d.wl.writes {
				d.search(t, d.in.seq[i%uint64(len(d.in.seq))])
				continue
			}
			switch r := d.in.ops[i%uint64(len(d.in.ops))]; r.op {
			case opInsert:
				d.insert(t)
			case opDelete:
				if !d.remove(t) {
					d.search(t, r.row)
				}
			default:
				d.search(t, r.row)
			}
		}
	})
}

func (d *loadgen) workers(run func(t *tally)) *tally {
	tallies := make([]*tally, d.wl.clients)
	var wg sync.WaitGroup
	for w := range tallies {
		tallies[w] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			run(t)
		}(tallies[w])
	}
	wg.Wait()
	out := &tally{}
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

// checkChurn checks the churn searches after the window, against the
// write history: no id whose delete was acknowledged before the search
// was sent may appear, and recall is measured against exact truth over
// the vectors live when it was sent. Writes in flight while a search
// ran are ambiguous and left out of both answer and truth.
func (d *loadgen) checkChurn(t *tally) {
	d.mu.Lock()
	inserts := append([]writeEvent(nil), d.inserts...)
	deletes := append([]writeEvent(nil), d.deletes...)
	d.mu.Unlock()
	for _, s := range t.churn {
		q := d.in.queries.Row(int(s.row))
		skip := map[uint32]bool{}
		gone := map[uint32]bool{}
		for _, e := range deletes {
			switch {
			case e.ack != 0 && e.ack <= s.send:
				gone[e.id] = true
			case e.send < s.recv:
				skip[e.id] = true
			}
		}
		if !d.checkShape(t, s.row, s.hits) {
			continue
		}
		cands := append([]neighbor(nil), d.in.truth[s.row]...)
		for _, e := range inserts {
			switch {
			case e.ack == 0 || e.send >= s.recv || gone[e.id]:
				continue
			case e.ack > s.send:
				skip[e.id] = true
			}
			cands = append(cands, neighbor{ID: e.id, Dist: vec.CosineDistance(q, d.in.inserts.Row(e.row))})
		}
		for _, h := range s.hits {
			if gone[h.ID] {
				t.wrong++
				t.problem("search sent after the delete of %d was acknowledged returned it", h.ID)
			}
		}
		sortNeighbors(cands)
		t.recallSum += recallOf(s.hits, cands, skip)
		t.recallN++
	}
	t.churn = nil
}

// warmUp sends the workload's own traffic, untimed, until the stack is
// in its steady state: on repeat-policy until /v1/stats reports adaptive
// ef ready and the answer cache full; on churn, after preloading inserts
// for deletes to target, until every repair controller has ticked; on
// pq-tier for warmUpSeconds.
func (d *loadgen) warmUp() (*tally, error) {
	all := &tally{}
	if d.wl.writes {
		for i := 0; i < preloadInserts; i++ {
			d.insert(all)
		}
	}
	chunk := time.Duration(warmUpSeconds * float64(time.Second))
	deadline := time.Now().Add(warmUpLimit)
	for {
		t := d.closedLoop(chunk)
		t.churn = nil // warm-up answers are checked for errors only
		all.merge(t)
		if all.failed > 0 || all.wrong > 0 {
			return all, fmt.Errorf("%d failed, %d wrong: %v", all.failed, all.wrong, all.problems)
		}
		s, err := d.stats()
		if err != nil {
			return all, err
		}
		if d.steady(s) {
			return all, d.sealGeneration()
		}
		if time.Now().After(deadline) {
			return all, fmt.Errorf("not steady after %s", warmUpLimit)
		}
		chunk = 250 * time.Millisecond
	}
}

// sealGeneration starts the window from a fresh snapshot generation
// on churn (POST /v1/snapshot), so every window of the same length
// holds the same number of cadence-triggered snapshots: each one stops
// a shard's writes for tens of milliseconds, and how many fall in the
// window would otherwise move the search tail.
func (d *loadgen) sealGeneration() error {
	if !d.wl.writes {
		return nil
	}
	status, reply, _, _, err := d.post(d.nextReq.Add(1), "/v1/snapshot", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /v1/snapshot: status %d: %s", status, bytes.TrimSpace(reply))
	}
	return err
}

func (d *loadgen) steady(s server.StatsResponse) bool {
	switch {
	case d.wl.policy:
		p := s.Policy
		return p != nil && p.Adaptive != nil && p.Adaptive.Ready && p.Cache != nil && p.Cache.Entries >= cacheEntries
	case d.wl.repair:
		if len(s.Repair) != numShards {
			return false
		}
		for _, r := range s.Repair {
			if r.BatchesRun+r.BatchesDeferred == 0 {
				return false
			}
		}
	}
	return true
}

// window is one measured stretch of traffic.
type window struct {
	t     *tally
	start int64 // ns since epoch
	len   time.Duration
}

// window runs seconds of the closed loop. Churn answers are checked
// once it ends.
func (d *loadgen) window(seconds float64) window {
	w := window{start: d.now()}
	w.t = d.closedLoop(time.Duration(seconds * float64(time.Second)))
	w.len = time.Duration(d.now() - w.start)
	if d.wl.writes {
		d.checkChurn(w.t)
	}
	return w
}

// insertProbe sends n inserts one after another, after the window, so
// that every workload measures the op-log bytes an insert costs and the
// recovery check always has writes to verify.
func (d *loadgen) insertProbe(n int) *tally {
	t := &tally{}
	for i := 0; i < n; i++ {
		d.insert(t)
	}
	return t
}

// acknowledged returns the acknowledged inserts (id -> vector) and
// deletes.
func (d *loadgen) acknowledged() (map[uint32][]float32, []uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ins := map[uint32][]float32{}
	for _, e := range d.inserts {
		if e.ack != 0 {
			ins[e.id] = d.in.inserts.Row(e.row)
		}
	}
	var dels []uint32
	for _, e := range d.deletes {
		if e.ack != 0 {
			dels = append(dels, e.id)
		}
	}
	return ins, dels
}
