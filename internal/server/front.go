package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"

	"ngfix/internal/graph"
	"ngfix/internal/obs"
)

// front is the HTTP plumbing the leader Server and the replica-only
// Follower share: body cap, panic recovery, method check, request
// decoding, search-parameter validation, the JSON writers and /healthz.
// Both embed it, so the two cannot drift in what they accept.
type front struct {
	mux *http.ServeMux
	// DefaultK / DefaultEF apply when a search request omits them.
	DefaultK, DefaultEF int
	// Logger receives malformed-response incidents and handler panics.
	// Nil uses the process-default logger.
	Logger *log.Logger
	// MaxBodyBytes caps request bodies (DefaultMaxBodyBytes when 0).
	MaxBodyBytes int64
}

func newFront() front {
	return front{mux: http.NewServeMux(), DefaultK: 10, DefaultEF: 100}
}

// ServeHTTP implements http.Handler with the protective middleware:
// request bodies are size-capped, and a panicking handler answers 500
// instead of killing the process.
func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			f.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				f.httpError(sw, http.StatusInternalServerError, errors.New("internal server error"))
			}
		}
	}()
	if r.Body != nil {
		max := f.MaxBodyBytes
		if max <= 0 {
			max = DefaultMaxBodyBytes
		}
		r.Body = http.MaxBytesReader(sw, r.Body, max)
	}
	f.mux.ServeHTTP(sw, r)
}

// statusWriter tracks whether a response has started, so panic recovery
// knows if it can still write a clean 500.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// method enforces the HTTP verb, answering 405 with an Allow header
// otherwise.
func (f *front) method(verb string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != verb {
			w.Header().Set("Allow", verb)
			f.httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s required", verb))
			return
		}
		h(w, r)
	}
}

// decode reads a strict JSON body into dst, answering 413 for a body
// over the cap and 400 for anything malformed.
func (f *front) decode(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			f.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		f.httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

// decodeSearch decodes a /v1/search body and validates it against an
// index of dimensionality dim holding n vectors, answering 4xx itself
// when the request is bad.
func (f *front) decodeSearch(w http.ResponseWriter, r *http.Request, dim, n int) (req SearchRequest, k, ef int, ok bool) {
	if !f.decode(w, r, &req) {
		return req, 0, 0, false
	}
	err := checkVector(req.Vector, dim)
	if err == nil {
		k, ef, err = f.searchParams(req, n)
	}
	if err != nil {
		f.httpError(w, http.StatusBadRequest, err)
		return req, 0, 0, false
	}
	return req, k, ef, true
}

func checkVector(v []float32, dim int) error {
	if len(v) == 0 {
		return fmt.Errorf("vector is required")
	}
	if len(v) != dim {
		return fmt.Errorf("vector dim %d != index dim %d", len(v), dim)
	}
	return nil
}

// searchParams resolves and strictly validates k and ef for an index of
// n vectors. Omitted values take the defaults; explicit values must make
// sense — 1 ≤ k ≤ ef, and neither larger than the graph itself (a bigger
// list cannot improve recall; it only burns memory and a bounded-capacity
// admission slot).
func (f *front) searchParams(req SearchRequest, n int) (k, ef int, err error) {
	k = f.DefaultK
	if req.K != nil {
		if err := checkListSize("k", *req.K, n); err != nil {
			return 0, 0, err
		}
		k = *req.K
	}
	ef = max(f.DefaultEF, k)
	if req.EF != nil {
		if err := checkListSize("ef", *req.EF, n); err != nil {
			return 0, 0, err
		}
		if *req.EF < k {
			return 0, 0, fmt.Errorf("ef (%d) must be at least k (%d)", *req.EF, k)
		}
		ef = *req.EF
	}
	return k, ef, nil
}

// checkListSize bounds an explicit client-sized result or search list:
// at least 1 and at most the n vectors of the index (an empty index
// skips the upper bound; it answers nothing either way).
func checkListSize(name string, v, n int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be at least 1, got %d", name, v)
	}
	if n > 0 && v > n {
		return fmt.Errorf("%s (%d) exceeds the graph size (%d vectors)", name, v, n)
	}
	return nil
}

// searchHits converts search results to the response rows.
func searchHits(res []graph.Result) []SearchHit {
	hits := make([]SearchHit, len(res))
	for i, h := range res {
		hits[i] = SearchHit{ID: h.ID, Dist: h.Dist}
	}
	return hits
}

func (f *front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// serveMetrics serves the merged Prometheus exposition of regs, or 404
// when metrics were not enabled (the route exists either way, so probes
// get a clean answer instead of the mux's default).
func (f *front) serveMetrics(w http.ResponseWriter, r *http.Request, regs []*obs.Registry) {
	if len(regs) == 0 {
		http.Error(w, "metrics not enabled", http.StatusNotFound)
		return
	}
	obs.MergedHandler(regs...).ServeHTTP(w, r)
}

func (f *front) logf(format string, args ...interface{}) {
	if f.Logger != nil {
		f.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (f *front) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already on the wire; all that is left is making the
		// incident visible to operators.
		f.logf("server: encode %T response: %v", v, err)
	}
}

func (f *front) httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if encErr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); encErr != nil {
		f.logf("server: encode %d error response: %v", code, encErr)
	}
}
