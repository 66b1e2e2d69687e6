package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/store"
	"seqstore/internal/svd"
)

// TestServedPlainSVDGolden serves a method-SVD .sqz, loaded the way
// seqserver loads one, and compares every response body and its X-Cost-*
// headers — info, the four point-read shapes, aggregates and their
// EXPLAIN, partials, a batch, and the /v1/metrics key set — with
// testdata/plain_svd_served.golden. The golden was recorded on the commit
// before plain-SVD stores loaded as delta-free SVDD stores, so it pins
// that a served plain store answers, charges and reports exactly as the
// plain-SVD path did: the same bits, disk accesses and pages touched, and
// no svdd metrics section. The two batch lines' disk accesses and pages
// were re-recorded once a batch charged each item as a lone query (their
// rows read and bodies did not move). Regenerate only for an intended wire
// change:
//
//	go test ./internal/server -run TestServedPlainSVDGolden -update-golden
func TestServedPlainSVDGolden(t *testing.T) {
	plain, err := svd.Compress(matio.NewMem(dataset.GeneratePhone(dataset.DefaultPhoneConfig(60))), 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plain.sqz")
	if err := store.Save(path, plain); err != nil {
		t.Fatal(err)
	}
	st, labels, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(st, labels, Options{QueryWorkers: 1}))
	defer srv.Close()

	took := regexp.MustCompile(`"took":[0-9]+`)
	var lines []string
	record := func(method, target, body string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+target, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, got := doRequest(t, req)
		var costs []string
		for name, vals := range resp.Header {
			if strings.HasPrefix(name, "X-Cost-") {
				costs = append(costs, name+"="+strings.Join(vals, ","))
			}
		}
		sort.Strings(costs)
		line := strings.Join(append([]string{method, target, body, resp.Status}, costs...), " ")
		lines = append(lines, line, "  "+took.ReplaceAllString(strings.TrimSpace(string(got)), `"took":0`))
	}
	record(http.MethodGet, "/v1/info", "")
	record(http.MethodGet, "/v1/cell?i=7&j=200", "")
	record(http.MethodGet, "/v1/cells?at=7:200,0:0,59:365,31:1", "")
	record(http.MethodGet, "/v1/row?i=41", "")
	record(http.MethodGet, "/v1/rows?i=2:5,58", "")
	for _, f := range []string{"sum", "stddev", "min", "max"} {
		record(http.MethodPost, "/v1/aggregate", `{"f":"`+f+`","rows":"3:40,52,9","cols":"100:160,7","explain":true}`)
	}
	record(http.MethodPost, "/v1/aggregate", `{"f":"sum","rows":"0:30","cols":"0:366","partial":true}`)
	record(http.MethodPost, "/v1/aggregate/batch", `{"queries":[`+
		`{"f":"avg","rows":"0:30","cols":"10:20"},`+
		`{"f":"stddev","rows":"20:50","cols":"10:20"},`+
		`{"f":"max","rows":"25:35","cols":"0:366"},`+
		`{"f":"count","rows":"1,2,3","cols":"4"}]}`)
	record(http.MethodPost, "/v1/aggregate/batch", `{"partial":true,"queries":[`+
		`{"f":"stddev","rows":"20:50","cols":"10:20"},`+
		`{"f":"min","rows":"25:35","cols":"0:366"}]}`)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, raw := doRequest(t, req)
	var metrics map[string]interface{}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatal(err)
	}
	schema := make(map[string]string)
	jsonSchema(metrics, "", schema)
	keys := make([]string, 0, len(schema))
	for k := range schema {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines = append(lines, "GET /v1/metrics keys")
	for _, k := range keys {
		lines = append(lines, "  "+k)
	}

	text := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "plain_svd_served.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	gotLines, wantLines := strings.Split(text, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d drifted from the golden:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// doRequest sends req and returns the response with its body read.
func doRequest(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	if req.Method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
