package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/server"
)

// BenchmarkProxyHop measures what the proxy hop adds to a point read and a
// one-shard aggregate: each request is sent over loopback HTTP through a one-shard
// proxy ("proxy") and straight to its store node ("node"), so the
// difference is the hop — the shard exchange over a channel, its answer's
// decoding and the proxy's own rendering. The store has 366 columns, so a row is the
// 366-value sequence the paper serves. Allocations are the whole process's:
// client, proxy and node.
//
//	go test ./internal/cluster -run '^$' -bench ProxyHop -benchmem
func BenchmarkProxyHop(b *testing.B) {
	cfg := dataset.DefaultPhoneConfig(256)
	full, err := core.Compress(matio.NewMem(dataset.GeneratePhone(cfg)), core.Options{Budget: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	node := httptest.NewServer(server.NewHandler(full, nil, server.Options{QueryWorkers: 1}))
	defer node.Close()
	proxy := httptest.NewServer(NewWithTopology(&Topology{Shards: []Shard{{Addr: node.URL, Lo: 0, Hi: -1}}}, Options{}))
	defer proxy.Close()

	requests := []struct{ name, method, path, body string }{
		{"cell", http.MethodGet, "/v1/cell?i=17&j=180", ""},
		{"row", http.MethodGet, "/v1/row?i=17", ""},
		{"avg", http.MethodPost, "/v1/aggregate", `{"f":"avg","rows":"0:200","cols":"100:160"}`},
		{"stddev", http.MethodPost, "/v1/aggregate", `{"f":"stddev","rows":"0:200","cols":"100:160"}`},
	}
	for _, rq := range requests {
		for _, door := range []struct{ name, url string }{{"proxy", proxy.URL}, {"node", node.URL}} {
			b.Run(rq.name+"/"+door.name, func(b *testing.B) {
				send := func() {
					req, err := http.NewRequest(rq.method, door.url+rq.path, strings.NewReader(rq.body))
					if err != nil {
						b.Fatal(err)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("%s %s: status %d", rq.method, rq.path, resp.StatusCode)
					}
				}
				send() // warm the connections and the pooled states
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					send()
				}
			})
		}
	}
}
