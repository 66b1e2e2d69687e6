package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"seqstore/internal/telemetry/promcheck"
)

func testSnapshot() Snapshot {
	r := NewRegistry()
	ep := r.Endpoint("/v1/cell")
	ep.Requests.Add(10)
	ep.Errors.Add(2)
	ep.Latency.Observe(1 * time.Millisecond)
	ep.Latency.Observe(2 * time.Millisecond)
	ep.Latency.Observe(40 * time.Millisecond)
	r.Endpoint(`/v1/we"ird\nep`).Requests.Inc()
	r.RegisterGauge("store_stored_numbers", func() float64 { return 12 })
	r.RegisterGauge("io_row_reads_total", func() float64 { return 99 })
	return r.Snapshot()
}

func parse(t *testing.T, exposition []byte) *promcheck.PromMetrics {
	t.Helper()
	m, err := promcheck.ParsePrometheus(bytes.NewReader(exposition))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, exposition)
	}
	return m
}

func render(t *testing.T, parts ...Part) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, parts...); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

func TestWritePrometheusParses(t *testing.T) {
	m := parse(t, render(t, Part{Snapshot: testSnapshot()}))

	if m.Types["seqstore_requests_total"] != "counter" {
		t.Errorf("requests_total type = %q", m.Types["seqstore_requests_total"])
	}
	if m.Types["seqstore_request_duration_seconds"] != "histogram" {
		t.Errorf("duration type = %q", m.Types["seqstore_request_duration_seconds"])
	}
	if m.Types["seqstore_uptime_seconds"] != "gauge" {
		t.Errorf("uptime type = %q", m.Types["seqstore_uptime_seconds"])
	}
	// Gauges keep their names, with *_total-named gauges typed counter so
	// scrapers can rate() them.
	if m.Types["seqstore_store_stored_numbers"] != "gauge" {
		t.Errorf("stored_numbers type = %q", m.Types["seqstore_store_stored_numbers"])
	}
	if m.Types["seqstore_io_row_reads_total"] != "counter" {
		t.Errorf("io gauge type = %q", m.Types["seqstore_io_row_reads_total"])
	}

	if got := m.Get("seqstore_io_row_reads_total"); len(got) != 1 || got[0] != 99 {
		t.Errorf("io_row_reads_total = %v", got)
	}
	if got := m.Get("seqstore_go_goroutines"); len(got) != 1 || got[0] <= 0 {
		t.Errorf("goroutines = %v", got)
	}

	// Per-endpoint samples carry the endpoint label, escaped.
	var sawCell, sawWeird bool
	for _, s := range m.Samples {
		if s.Name != "seqstore_requests_total" {
			continue
		}
		switch s.Labels["endpoint"] {
		case "/v1/cell":
			sawCell = true
			if s.Value != 10 {
				t.Errorf("cell requests = %v", s.Value)
			}
		case `/v1/we"ird\nep`:
			sawWeird = true
		}
	}
	if !sawCell || !sawWeird {
		t.Errorf("endpoint labels missing: cell=%v weird=%v", sawCell, sawWeird)
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	m := parse(t, render(t, Part{Snapshot: testSnapshot()}))
	// ParsePrometheus already enforces bucket monotonicity and the +Inf =
	// _count invariant; here pin the concrete values for /v1/cell.
	var inf, count, sum float64
	for _, s := range m.Samples {
		if s.Labels["endpoint"] != "/v1/cell" {
			continue
		}
		switch s.Name {
		case "seqstore_request_duration_seconds_bucket":
			if s.Labels["le"] == "+Inf" {
				inf = s.Value
			}
		case "seqstore_request_duration_seconds_count":
			count = s.Value
		case "seqstore_request_duration_seconds_sum":
			sum = s.Value
		}
	}
	if inf != 3 || count != 3 {
		t.Errorf("+Inf = %v, count = %v, want 3", inf, count)
	}
	wantSum := (1 + 2 + 40) * 1e-3
	if d := sum - wantSum; d < -1e-9 || d > 1e-9 {
		t.Errorf("sum = %v s, want %v", sum, wantSum)
	}
}

// fixedSnapshot is a snapshot with every section set and nothing left to
// the clock or the runtime, so its exposition can be pinned byte for byte.
func fixedSnapshot() Snapshot {
	return Snapshot{
		UptimeSeconds: 12.5,
		Endpoints: map[string]EndpointSnapshot{
			"/v1/cell": {Requests: 10, Errors: 2, Latency: HistogramSnapshot{
				Count: 3, MeanMs: 14.333333333333334, MinMs: 1, MaxMs: 40,
				P50Ms: 1.536, P90Ms: 40, P99Ms: 40, P999Ms: 40,
				Buckets: []Bucket{{LeMs: 1.024, Count: 1}, {LeMs: 2.048, Count: 1}, {LeMs: 65.536, Count: 1}},
			}},
			`/v1/we"ird\nep`: {Requests: 1},
		},
		Gauges: map[string]float64{"io_row_reads_total": 99, "store_space_ratio": 0.1234},
		Runtime: RuntimeSnapshot{Goroutines: 7, HeapAllocBytes: 1 << 20, HeapSysBytes: 4 << 20,
			GCRuns: 3, GCPauseTotalSecond: 0.00125},
		SLO: &SLOReport{ObjectiveMs: 50, Target: 0.99, Endpoints: []SLOEndpoint{
			{Endpoint: "/v1/cell", Count: 3, Attainment: 0.6666666666666666, BurnRate: 33.33333333333333},
			{Endpoint: `/v1/we"ird\nep`, Count: 0, Attainment: 1, BurnRate: 0},
		}},
	}
}

// fixedExposition is fixedSnapshot's exposition as a node serves it,
// byte for byte: what scrapers of a node have always read.
const fixedExposition = `# HELP seqstore_uptime_seconds Seconds since the server registry was created.
# TYPE seqstore_uptime_seconds gauge
seqstore_uptime_seconds 12.5
# HELP seqstore_requests_total Requests served, by endpoint pattern.
# TYPE seqstore_requests_total counter
seqstore_requests_total{endpoint="/v1/cell"} 10
seqstore_requests_total{endpoint="/v1/we\"ird\\nep"} 1
# HELP seqstore_request_errors_total Requests answered with status >= 400, by endpoint pattern.
# TYPE seqstore_request_errors_total counter
seqstore_request_errors_total{endpoint="/v1/cell"} 2
seqstore_request_errors_total{endpoint="/v1/we\"ird\\nep"} 0
# HELP seqstore_request_duration_seconds Request latency, by endpoint pattern.
# TYPE seqstore_request_duration_seconds histogram
seqstore_request_duration_seconds_bucket{endpoint="/v1/cell",le="0.001024"} 1
seqstore_request_duration_seconds_bucket{endpoint="/v1/cell",le="0.002048"} 2
seqstore_request_duration_seconds_bucket{endpoint="/v1/cell",le="0.065536"} 3
seqstore_request_duration_seconds_bucket{endpoint="/v1/cell",le="+Inf"} 3
seqstore_request_duration_seconds_sum{endpoint="/v1/cell"} 0.043
seqstore_request_duration_seconds_count{endpoint="/v1/cell"} 3
seqstore_request_duration_seconds_bucket{endpoint="/v1/we\"ird\\nep",le="+Inf"} 0
seqstore_request_duration_seconds_sum{endpoint="/v1/we\"ird\\nep"} 0
seqstore_request_duration_seconds_count{endpoint="/v1/we\"ird\\nep"} 0
# HELP seqstore_io_row_reads_total Gauge "io_row_reads_total" from the registry.
# TYPE seqstore_io_row_reads_total counter
seqstore_io_row_reads_total 99
# HELP seqstore_store_space_ratio Gauge "store_space_ratio" from the registry.
# TYPE seqstore_store_space_ratio gauge
seqstore_store_space_ratio 0.1234
# HELP seqstore_slo_objective_seconds The latency objective requests are measured against.
# TYPE seqstore_slo_objective_seconds gauge
seqstore_slo_objective_seconds 0.05
# HELP seqstore_slo_target_ratio Fraction of requests that must meet the objective.
# TYPE seqstore_slo_target_ratio gauge
seqstore_slo_target_ratio 0.99
# HELP seqstore_slo_attainment_ratio Fraction of requests meeting the objective, by endpoint.
# TYPE seqstore_slo_attainment_ratio gauge
seqstore_slo_attainment_ratio{endpoint="/v1/cell"} 0.6666666666666666
seqstore_slo_attainment_ratio{endpoint="/v1/we\"ird\\nep"} 1
# HELP seqstore_slo_burn_rate Error-budget burn rate, by endpoint (1.0 = sustainable).
# TYPE seqstore_slo_burn_rate gauge
seqstore_slo_burn_rate{endpoint="/v1/cell"} 33.33333333333333
seqstore_slo_burn_rate{endpoint="/v1/we\"ird\\nep"} 0
# HELP seqstore_go_goroutines Current number of goroutines.
# TYPE seqstore_go_goroutines gauge
seqstore_go_goroutines 7
# HELP seqstore_go_heap_alloc_bytes Bytes of allocated heap objects.
# TYPE seqstore_go_heap_alloc_bytes gauge
seqstore_go_heap_alloc_bytes 1048576
# HELP seqstore_go_heap_sys_bytes Bytes of heap memory obtained from the OS.
# TYPE seqstore_go_heap_sys_bytes gauge
seqstore_go_heap_sys_bytes 4194304
# HELP seqstore_go_gc_runs_total Completed GC cycles.
# TYPE seqstore_go_gc_runs_total counter
seqstore_go_gc_runs_total 3
# HELP seqstore_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.
# TYPE seqstore_go_gc_pause_seconds_total counter
seqstore_go_gc_pause_seconds_total 0.00125
`

// TestWritePrometheusSinglePartPinned: one unlabeled part is a node's own
// exposition, unchanged byte for byte.
func TestWritePrometheusSinglePartPinned(t *testing.T) {
	if got := string(render(t, Part{Snapshot: fixedSnapshot()})); got != fixedExposition {
		t.Fatalf("single-part exposition changed\n--- got ---\n%s--- want ---\n%s", got, fixedExposition)
	}
}

// TestWritePrometheusParts renders two labeled parts, one with a gauge and
// an SLO the other lacks: the exposition re-parses, declares every family
// once, and each part's samples are its own single render's, in order,
// with the part's label added and every value bit kept.
func TestWritePrometheusParts(t *testing.T) {
	a := fixedSnapshot()
	b := testSnapshot() // no SLO; gauges store_stored_numbers, io_row_reads_total
	parts := []Part{
		{Snapshot: a, Label: "shard", Value: "0"},
		{Snapshot: b, Label: "shard", Value: "1"},
	}
	out := render(t, parts...)
	merged := parse(t, out)
	for fam := range merged.Types {
		for _, decl := range []string{"# HELP " + fam + " ", "# TYPE " + fam + " "} {
			if n := strings.Count(string(out), decl); n != 1 {
				t.Errorf("%q appears %d times", decl, n)
			}
		}
	}
	for _, fam := range []string{"seqstore_store_space_ratio", "seqstore_store_stored_numbers", "seqstore_slo_burn_rate"} {
		if _, ok := merged.Types[fam]; !ok {
			t.Errorf("family %s, present in one part only, is missing", fam)
		}
	}

	for _, p := range parts {
		own := parse(t, render(t, Part{Snapshot: p.Snapshot})).Samples
		var got []promcheck.PromSample
		for _, s := range merged.Samples {
			if s.Labels[p.Label] == p.Value {
				got = append(got, s)
			}
		}
		if len(got) != len(own) {
			t.Fatalf("part %s: %d samples, its own render has %d", p.Value, len(got), len(own))
		}
		for i, want := range own {
			want.Labels[p.Label] = p.Value
			s := got[i]
			if s.Name != want.Name || !reflect.DeepEqual(s.Labels, want.Labels) ||
				math.Float64bits(s.Value) != math.Float64bits(want.Value) {
				t.Errorf("part %s sample %d: got %s%v %v, want %s%v %v",
					p.Value, i, s.Name, s.Labels, s.Value, want.Name, want.Labels, want.Value)
			}
		}
	}
}

func TestPromSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"cache_hits", "cache_hits"},
		{"weird-name.x", "weird_name_x"},
		{"9lead", "_lead"},
		{"ok9", "ok9"},
	}
	for _, c := range cases {
		if got := promSanitizeName(c.in); got != c.want {
			t.Errorf("promSanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
