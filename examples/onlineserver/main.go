// Online serving: runs the HTTP server in-process, drives it with an OOD
// query stream over real HTTP, and shows the index quality improving as
// the online fixer consumes the stream — the paper's production loop,
// end to end.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"ngfix/internal/bruteforce"
	"ngfix/internal/core"
	"ngfix/internal/dataset"
	"ngfix/internal/hnsw"
	"ngfix/internal/metrics"
	"ngfix/internal/server"
)

func main() {
	d := dataset.Generate(dataset.LAION(0.25))
	h := hnsw.Build(d.Base, hnsw.DefaultConfig(d.Config.Metric))
	ix := core.New(h.Bottom(), core.Options{LEx: 48})
	fixer := core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 2000, PrepEF: 150})

	ts := httptest.NewServer(server.New(fixer))
	defer ts.Close()
	fmt.Println("server listening at", ts.URL)

	search := func(q []float32, k, ef int) server.SearchResponse {
		body, _ := json.Marshal(server.SearchRequest{Vector: q, K: server.IntPtr(k), EF: server.IntPtr(ef)})
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out server.SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return out
	}

	gt := bruteforce.AllKNN(d.Base, d.TestOOD, d.Config.Metric, 10)
	recallNow := func() float64 {
		var sum float64
		for qi := 0; qi < d.TestOOD.Rows(); qi++ {
			out := search(d.TestOOD.Row(qi), 10, 15)
			ids := make([]uint32, len(out.Results))
			for i, r := range out.Results {
				ids[i] = r.ID
			}
			sum += metrics.Recall(ids, bruteforce.IDs(gt[qi]))
		}
		return sum / float64(d.TestOOD.Rows())
	}

	fmt.Printf("recall@10 before any traffic:        %.3f\n", recallNow())
	_, _ = fixer.FixPending(0) // discard the measurement queries; no WAL, so no error

	// Production traffic arrives...
	for qi := 0; qi < d.History.Rows(); qi++ {
		search(d.History.Row(qi), 10, 15)
	}
	// ...and a maintenance tick repairs the graph with it.
	resp, err := http.Post(ts.URL+"/v1/fix", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		log.Fatal(err)
	}
	var fr server.FixResponse
	json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	fmt.Printf("online fix: %d queries, +%d NGFix edges, +%d RFix edges\n",
		fr.Queries, fr.NGFixEdges, fr.RFixEdges)

	fmt.Printf("recall@10 after online fixing:       %.3f\n", recallNow())

	// Stats endpoint.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st server.StatsResponse
	json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	fmt.Printf("index: %d vectors, avg degree %.1f, %d fix batches\n",
		st.Vectors, st.AvgDegree, st.FixBatches)
}
