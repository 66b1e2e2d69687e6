// Package promcheck is a minimal hand-rolled Prometheus text-format parser
// for tests, in the style of net/http/httptest: it lets the test suites
// validate /v1/metrics?format=prom output without a client library. It
// checks the structural rules a scraper relies on (names and label syntax,
// numeric values, TYPE declarations preceding samples, histogram bucket
// monotonicity) and hands back the samples. Production code renders
// expositions (telemetry.WritePrometheus) and never parses one; only
// _test.go files import this package.
package promcheck

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromMetrics is a parsed exposition: declared family types plus samples in
// input order.
type PromMetrics struct {
	Types   map[string]string // family name -> "counter" | "gauge" | "histogram" | ...
	Samples []PromSample
}

// Get returns the values of the named samples (any labels), in input order.
func (m *PromMetrics) Get(name string) []float64 {
	var out []float64
	for _, s := range m.Samples {
		if s.Name == name {
			out = append(out, s.Value)
		}
	}
	return out
}

// Families returns the declared family names, sorted.
func (m *PromMetrics) Families() []string {
	fams := make([]string, 0, len(m.Types))
	for fam := range m.Types {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	return fams
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sampleFamily strips the histogram sample suffixes so a sample can be
// matched against its family's TYPE declaration.
func sampleFamily(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// ParsePrometheus parses a text exposition, enforcing the structural rules
// above. It is intentionally minimal: no timestamps, no exemplars, no UTF-8
// names — none of which telemetry.WritePrometheus emits.
func ParsePrometheus(r io.Reader) (*PromMetrics, error) {
	m := &PromMetrics{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || !validPromName(parts[2]) {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			if _, dup := m.Types[parts[2]]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, parts[2])
			}
			m.Types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := sampleFamily(s.Name, m.Types)
		if _, ok := m.Types[fam]; !ok {
			return nil, fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, s.Name)
		}
		m.Samples = append(m.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := m.checkHistograms(); err != nil {
		return nil, err
	}
	return m, nil
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value: %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote, esc := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case esc:
				esc = false
			case c == '\\' && inQuote:
				esc = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated labels: %q", line)
		}
		if err := parsePromLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// Ignore an optional timestamp (we never emit one, but be lenient).
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("label without '=': %q", body)
		}
		name := body[:eq]
		if !validPromName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return fmt.Errorf("label %s: unquoted value", name)
		}
		var val strings.Builder
		i, closed := 1, false
		for ; i < len(body); i++ {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(body[i])
				default:
					return fmt.Errorf("label %s: bad escape \\%c", name, body[i])
				}
				continue
			}
			if c == '"' {
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("label %s: unterminated value", name)
		}
		into[name] = val.String()
		body = body[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return nil
}

// checkHistograms verifies that every declared histogram family has
// monotonically non-decreasing buckets ending in +Inf, and that the +Inf
// bucket equals the family _count, per label set.
func (m *PromMetrics) checkHistograms() error {
	for fam, typ := range m.Types {
		if typ != "histogram" {
			continue
		}
		type series struct {
			les    []float64
			counts []float64
			count  float64
			hasInf bool
		}
		byLabels := map[string]*series{}
		keyOf := func(labels map[string]string) string {
			parts := make([]string, 0, len(labels))
			for k, v := range labels {
				if k == "le" {
					continue
				}
				parts = append(parts, k+"="+v)
			}
			sort.Strings(parts)
			return strings.Join(parts, ",")
		}
		get := func(labels map[string]string) *series {
			k := keyOf(labels)
			s, ok := byLabels[k]
			if !ok {
				s = &series{}
				byLabels[k] = s
			}
			return s
		}
		for _, s := range m.Samples {
			switch s.Name {
			case fam + "_bucket":
				ser := get(s.Labels)
				le := s.Labels["le"]
				if le == "+Inf" {
					ser.hasInf = true
					ser.les = append(ser.les, 0)
				} else {
					v, err := strconv.ParseFloat(le, 64)
					if err != nil {
						return fmt.Errorf("%s: bad le %q", fam, le)
					}
					if ser.hasInf {
						return fmt.Errorf("%s: bucket after +Inf", fam)
					}
					if n := len(ser.les); n > 0 && v <= ser.les[n-1] {
						return fmt.Errorf("%s: le not increasing at %g", fam, v)
					}
					ser.les = append(ser.les, v)
				}
				if n := len(ser.counts); n > 0 && s.Value < ser.counts[n-1] {
					return fmt.Errorf("%s: bucket counts decrease at le=%s", fam, le)
				}
				ser.counts = append(ser.counts, s.Value)
			case fam + "_count":
				get(s.Labels).count = s.Value
			}
		}
		for k, ser := range byLabels {
			if !ser.hasInf {
				return fmt.Errorf("%s{%s}: missing +Inf bucket", fam, k)
			}
			if n := len(ser.counts); n > 0 && ser.counts[n-1] != ser.count {
				return fmt.Errorf("%s{%s}: +Inf bucket %g != count %g", fam, k, ser.counts[n-1], ser.count)
			}
		}
	}
	return nil
}
