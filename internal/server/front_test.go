package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// hugeList is a client-sized list far beyond any index: sized into a heap
// allocation it is a runtime out-of-memory fatal, which no recovery
// middleware can catch.
const hugeList = 1 << 36

// serve sends one raw body to h in process and returns the status.
func serve(h http.Handler, path, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code
}

// vectorJSON renders v as a JSON array.
func vectorJSON(v []float32) string {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", x)
	}
	b.WriteByte(']')
	return b.String()
}

// checkStillServes asserts h answers an ordinary search after a rejected
// oversized one.
func checkStillServes(t *testing.T, h http.Handler, v string) {
	t.Helper()
	if code := serve(h, "/v1/search", `{"vector":`+v+`,"k":5,"ef":40}`); code != http.StatusOK {
		t.Fatalf("ordinary search after the oversized one: status %d", code)
	}
}

func TestLeaderRejectsHugeK(t *testing.T) {
	_, s, d := newTestServerFull(t)
	v := vectorJSON(d.TestOOD.Row(0))
	body := fmt.Sprintf(`{"vector":%s,"k":%d}`, v, hugeList)
	if code := serve(s, "/v1/search", body); code != http.StatusBadRequest {
		t.Fatalf("k=%d: status %d, want 400", hugeList, code)
	}
	checkStillServes(t, s, v)
}

func TestFollowerRejectsHugeEF(t *testing.T) {
	rs := newReplicatedTestServer(t, 0)
	fol := NewFollower(rs.set)
	v := vectorJSON(rs.d.TestOOD.Row(0))
	body := fmt.Sprintf(`{"vector":%s,"ef":%d}`, v, hugeList)
	if code := serve(fol, "/v1/search", body); code != http.StatusBadRequest {
		t.Fatalf("follower ef=%d: status %d, want 400", hugeList, code)
	}
	checkStillServes(t, fol, v)
}

func TestPurgeRejectsHugeKEF(t *testing.T) {
	_, s, d := newTestServerFull(t)
	if changed, err := s.Group().Delete(3); err != nil || !changed {
		t.Fatalf("delete: %v %v", changed, err)
	}
	for _, body := range []string{
		fmt.Sprintf(`{"k":%d,"ef":%d}`, hugeList, hugeList),
		fmt.Sprintf(`{"k":%d}`, hugeList),
		fmt.Sprintf(`{"ef":%d}`, hugeList),
		`{"k":-1}`,
	} {
		if code := serve(s, "/v1/purge", body); code != http.StatusBadRequest {
			t.Fatalf("purge %s: status %d, want 400", body, code)
		}
	}
	// 0 still means the defaults, and the tombstone is still there to purge.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/purge", strings.NewReader(`{"k":0,"ef":0}`)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"purged":1`) {
		t.Fatalf("default purge: status %d body %s", rec.Code, rec.Body)
	}
	checkStillServes(t, s, vectorJSON(d.TestOOD.Row(0)))
}

// FuzzSearchHandler feeds arbitrary /v1/search bodies to a two-shard
// leader and to a follower replicating it, caught up before fuzzing
// starts. Bad input must get a 4xx, never a 5xx or a crash, and the two
// servers must agree on every status: they share one validation path.
func FuzzSearchHandler(f *testing.F) {
	rs := newReplicatedTestServer(f, 0)
	fol := NewFollower(rs.set)
	v := vectorJSON(rs.d.TestOOD.Row(0))
	for _, seed := range []string{
		`{"vector":` + v + `}`,
		`{"vector":` + v + `,"k":5,"ef":40}`,
		`{"vector":` + v + `,"k":400,"ef":400}`,
		`{"vector":` + v + `,"k":401}`,
		`{"vector":` + v + `,"ef":0}`,
		`{"vector":` + v + `,"k":-1}`,
		`{"vector":` + v + `,"k":20,"ef":10}`,
		fmt.Sprintf(`{"vector":%s,"k":%d}`, v, hugeList),
		fmt.Sprintf(`{"vector":%s,"ef":%d}`, v, hugeList),
		`{"vector":[1,2]}`,
		`{"vector":[]}`,
		`{"vector":` + v + `,"extra":1}`,
		`{"vector":[1e39,0,0,0,0,0,0,0]}`,
		`{}`,
		`[]`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		leader := serve(rs.s, "/v1/search", string(body))
		follower := serve(fol, "/v1/search", string(body))
		if leader >= 500 || follower >= 500 {
			t.Fatalf("body %q: leader %d, follower %d", body, leader, follower)
		}
		if leader != follower {
			t.Fatalf("body %q: leader %d, follower %d — validation drifted", body, leader, follower)
		}
	})
}
