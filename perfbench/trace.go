package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ngfix/internal/graph"
	"ngfix/internal/persist"
	"ngfix/internal/pq"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the benchmark's epoch. Req ties the spans of one request
// together; Key lets a WAL span be matched to the request whose handler
// span contains it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Key    uint64 `json:"-"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps every span in memory until the run ends. It records
// only while on, so the wrappers can stay installed through the
// untraced half of a traced run.
type spanLog struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// active reports whether spans are being recorded; false on a nil log.
func (l *spanLog) active() bool { return l != nil && l.on.Load() }

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// add records a span and returns its id (ids start at 1). A nil or
// inactive log records nothing.
func (l *spanLog) add(s span) int {
	if !l.active() {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// snapshot returns the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// reqHeader carries the client's request id to the handler wrapper.
const reqHeader = "X-Bench-Req"

// tracingHandler wraps server.Server: one span per request around
// ServeHTTP, tagged with the client's request id.
type tracingHandler struct {
	next  http.Handler
	spans *spanLog
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64) // absent outside the traced window
	start := h.spans.now()
	h.next.ServeHTTP(w, r)
	h.spans.add(span{Req: req, Name: "server" + r.URL.Path, Start: start, End: h.spans.now()})
}

// tracedWAL implements core.WAL and core.PQWAL by forwarding every call
// to a persist.Store and recording a span around it.
type tracedWAL struct {
	st    *persist.Store
	shard int
	spans *spanLog
}

func (w *tracedWAL) timed(name string, key uint64, fn func() error) error {
	start := w.spans.now()
	err := fn()
	w.spans.add(span{Name: name, Start: start, End: w.spans.now(), Key: key})
	return err
}

func (w *tracedWAL) LogInsert(v []float32) error {
	return w.timed("persist.log_insert", vectorKey(v), func() error { return w.st.LogInsert(v) })
}

func (w *tracedWAL) LogDelete(id uint32) error {
	return w.timed("persist.log_delete", deleteKey(w.shard, id), func() error { return w.st.LogDelete(id) })
}

func (w *tracedWAL) LogFixEdges(u []graph.ExtraUpdate) error {
	return w.timed("persist.log_fix_edges", 0, func() error { return w.st.LogFixEdges(u) })
}

func (w *tracedWAL) Snapshot(g *graph.Graph) error {
	return w.timed("persist.snapshot", 0, func() error { return w.st.Snapshot(g) })
}

func (w *tracedWAL) SnapshotPQ(g *graph.Graph, q *pq.Quantizer) error {
	return w.timed("persist.snapshot", 0, func() error { return w.st.SnapshotPQ(g, q) })
}

// vectorKey identifies an inserted vector by the bits of its first
// coordinates; inserted vectors are random, so collisions do not occur
// in practice.
func vectorKey(v []float32) uint64 {
	var k uint64 = 1469598103934665603
	for i := 0; i < len(v) && i < 8; i++ {
		k = (k ^ uint64(math.Float32bits(v[i]))) * 1099511628211
	}
	return k
}

// deleteKey identifies a delete by its shard and shard-local id.
func deleteKey(shard int, local uint32) uint64 { return uint64(shard)<<32 | uint64(local) }

// linkWAL gives each WAL span of an insert or delete its parent: the
// handler span of the request that issued it, found by key and checked
// by containment. Fix-edge and snapshot spans come from background
// repair and stay roots. It returns how many insert/delete WAL spans
// no containing handler span claimed.
func linkWAL(spans []span, keyOfReq map[uint64]uint64) (orphans int) {
	handler := map[uint64]int{} // key -> index of its handler span
	for i, s := range spans {
		if s.Name == "server/v1/insert" || s.Name == "server/v1/delete" {
			if k, ok := keyOfReq[s.Req]; ok {
				handler[k] = i
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "persist.log_insert" && s.Name != "persist.log_delete" {
			continue
		}
		j, ok := handler[s.Key]
		if !ok || spans[j].Start > s.Start || spans[j].End < s.End {
			orphans++
			continue
		}
		s.Parent, s.Req = spans[j].ID, spans[j].Req
	}
	return orphans
}

// selfTimes computes, per span name, the median self time: a span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string][]float64{}
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID])
		byName[s.Name] = append(byName[s.Name], float64(self)/1e3)
	}
	out := map[string]float64{}
	for name, xs := range byName {
		out[name] = quantile(xs, 0.5)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// maxSpansWritten bounds the trace file; metrics use every span.
const maxSpansWritten = 200000

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if i == maxSpansWritten {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
