package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (format 0.0.4) rendered straight from a
// Snapshot, so /v1/metrics?format=prom and the JSON view can never drift:
// both are views of the same struct. Families are prefixed "seqstore_";
// durations are seconds per Prometheus convention (the JSON schema keeps
// milliseconds).

// promEscapeLabel escapes a label value per the exposition format.
func promEscapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// promSanitizeName maps an arbitrary metric name onto the Prometheus name
// charset [a-zA-Z0-9_:], replacing anything else with '_'.
func promSanitizeName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Part is one registry's snapshot in an exposition. When Label is set,
// the pair Label="Value" is added to every sample the part contributes —
// shard="N" in the proxy's cluster scope.
type Part struct {
	Snapshot     Snapshot
	Label, Value string
}

// WritePrometheus renders one or more snapshots as one exposition in the
// Prometheus text format: a node's own view is a single unlabeled part,
// the proxy's cluster scope one shard-labeled part per store node. Each
// family is declared once, when any part has it, followed by every part's
// samples in part order. Output is deterministic (families and label
// values sorted), which is what lets the golden-schema tests pin it.
func WritePrometheus(w io.Writer, parts ...Part) error {
	pw := &promWriter{errWriter: errWriter{w: w}, parts: parts}
	gauges := make(map[string]bool)
	hasSLO := false
	for _, p := range parts {
		for name := range p.Snapshot.Gauges {
			gauges[name] = true
		}
		hasSLO = hasSLO || p.Snapshot.SLO != nil
	}

	pw.family("seqstore_uptime_seconds", "gauge", "Seconds since the server registry was created.",
		func(s *Snapshot) { pw.sample("", s.UptimeSeconds) })

	pw.family("seqstore_requests_total", "counter", "Requests served, by endpoint pattern.", func(s *Snapshot) {
		for _, name := range sortedKeys(s.Endpoints) {
			pw.sample("", s.Endpoints[name].Requests, "endpoint", name)
		}
	})
	pw.family("seqstore_request_errors_total", "counter", "Requests answered with status >= 400, by endpoint pattern.", func(s *Snapshot) {
		for _, name := range sortedKeys(s.Endpoints) {
			pw.sample("", s.Endpoints[name].Errors, "endpoint", name)
		}
	})
	pw.family("seqstore_request_duration_seconds", "histogram", "Request latency, by endpoint pattern.", func(s *Snapshot) {
		for _, name := range sortedKeys(s.Endpoints) {
			h := s.Endpoints[name].Latency
			var cum int64
			for _, b := range h.Buckets {
				cum += b.Count
				pw.sample("_bucket", cum, "endpoint", name, "le", fmt.Sprintf("%g", b.LeMs/1e3))
			}
			pw.sample("_bucket", h.Count, "endpoint", name, "le", "+Inf")
			pw.sample("_sum", h.MeanMs*float64(h.Count)/1e3, "endpoint", name)
			pw.sample("_count", h.Count, "endpoint", name)
		}
	})

	for _, name := range sortedKeys(gauges) {
		fam := "seqstore_" + promSanitizeName(name)
		// A registered gauge whose name ends in _total is really a
		// monotonically increasing value sourced from outside the registry
		// (e.g. matio row reads); type it as a counter so scrapers can rate()
		// it.
		typ := "gauge"
		if strings.HasSuffix(fam, "_total") {
			typ = "counter"
		}
		pw.family(fam, typ, fmt.Sprintf("Gauge %q from the registry.", promEscapeLabel(name)), func(s *Snapshot) {
			if v, ok := s.Gauges[name]; ok {
				pw.sample("", v)
			}
		})
	}

	if hasSLO {
		pw.family("seqstore_slo_objective_seconds", "gauge", "The latency objective requests are measured against.", func(s *Snapshot) {
			if s.SLO != nil {
				pw.sample("", s.SLO.ObjectiveMs/1e3)
			}
		})
		pw.family("seqstore_slo_target_ratio", "gauge", "Fraction of requests that must meet the objective.", func(s *Snapshot) {
			if s.SLO != nil {
				pw.sample("", s.SLO.Target)
			}
		})
		pw.family("seqstore_slo_attainment_ratio", "gauge", "Fraction of requests meeting the objective, by endpoint.", func(s *Snapshot) {
			for _, ep := range sloEndpoints(s) {
				pw.sample("", ep.Attainment, "endpoint", ep.Endpoint)
			}
		})
		pw.family("seqstore_slo_burn_rate", "gauge", "Error-budget burn rate, by endpoint (1.0 = sustainable).", func(s *Snapshot) {
			for _, ep := range sloEndpoints(s) {
				pw.sample("", ep.BurnRate, "endpoint", ep.Endpoint)
			}
		})
	}

	pw.family("seqstore_go_goroutines", "gauge", "Current number of goroutines.",
		func(s *Snapshot) { pw.sample("", s.Runtime.Goroutines) })
	pw.family("seqstore_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.",
		func(s *Snapshot) { pw.sample("", s.Runtime.HeapAllocBytes) })
	pw.family("seqstore_go_heap_sys_bytes", "gauge", "Bytes of heap memory obtained from the OS.",
		func(s *Snapshot) { pw.sample("", s.Runtime.HeapSysBytes) })
	pw.family("seqstore_go_gc_runs_total", "counter", "Completed GC cycles.",
		func(s *Snapshot) { pw.sample("", s.Runtime.GCRuns) })
	pw.family("seqstore_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.",
		func(s *Snapshot) { pw.sample("", s.Runtime.GCPauseTotalSecond) })

	return pw.err
}

func sloEndpoints(s *Snapshot) []SLOEndpoint {
	if s.SLO == nil {
		return nil
	}
	return s.SLO.Endpoints
}

// promWriter renders one exposition over several parts.
type promWriter struct {
	errWriter
	parts []Part
	fam   string // the family being written
	cur   *Part  // the part whose samples are being written
}

// family declares one family and writes every part's samples of it: each
// is called once per part, in part order, and writes them with sample.
func (pw *promWriter) family(name, typ, help string, each func(s *Snapshot)) {
	pw.printf("# HELP %s %s\n", name, help)
	pw.printf("# TYPE %s %s\n", name, typ)
	pw.fam = name
	for i := range pw.parts {
		pw.cur = &pw.parts[i]
		each(&pw.cur.Snapshot)
	}
}

// sample writes one sample line of the current part: the family's name
// plus suffix ("_bucket", …, or none), the given label pairs followed by
// the part's own, and the value (%v: an integer renders as %d, a float64
// as %g).
func (pw *promWriter) sample(suffix string, value any, pairs ...string) {
	if pw.cur.Label != "" {
		pairs = append(pairs, pw.cur.Label, pw.cur.Value)
	}
	var labels strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		labels.WriteByte(sep)
		labels.WriteString(pairs[i] + `="` + promEscapeLabel(pairs[i+1]) + `"`)
	}
	if labels.Len() > 0 {
		labels.WriteByte('}')
	}
	pw.printf("%s%s%s %v\n", pw.fam, suffix, labels.String(), value)
}

// errWriter latches the first write error so rendering code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
