package main

import (
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarations holds BENCHMARK.json to the contract's limits and to
// the lists this program emits from, so names cannot drift.
func TestDeclarations(t *testing.T) {
	d, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 || d.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", d.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	check := func(list string, declared []declaredMetric, emitted []decl, bounded bool) {
		seen := map[string]string{}
		for _, m := range declared {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q: bad name or unit %q", list, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better = %q", list, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v", list, m.Name, m.Bound)
			}
			if _, dup := seen[m.Name]; dup {
				t.Errorf("%s %q declared twice", list, m.Name)
			}
			seen[m.Name] = m.Unit
		}
		for _, e := range emitted {
			if unit, ok := seen[e.name]; !ok {
				t.Errorf("%s: program emits %q, BENCHMARK.json does not declare it", list, e.name)
			} else if unit != e.unit {
				t.Errorf("%s %q: unit %q emitted, %q declared", list, e.name, e.unit, unit)
			}
			delete(seen, e.name)
		}
		for name := range seen {
			t.Errorf("%s: BENCHMARK.json declares %q, program never emits it", list, name)
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
}

// TestSmoke runs every workload both ways on a dataset that compresses in
// milliseconds: every check must pass, every declared metric and nothing
// else must come out, and no end-to-end metric may be 0.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			o := options{workload: w, seed: 7, seconds: 0.4, trace: trace, outDir: t.TempDir(), sz: smokeSizes}
			res, err := runOne(o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w, trace, err)
			}
			if res.firstErr != nil || !res.Correct {
				t.Errorf("%s trace %d: %d of %d checks failed: %v", w, trace, res.Failed, res.Attempted, res.firstErr)
			}
			decls := endToEnd
			if trace == 1 {
				decls = perLayer
			}
			res.fill(decls)
			var got, want []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v", w, name, m.Value)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: %s = %v", w, trace, name, m.Value)
				}
			}
			for _, d := range decls {
				want = append(want, d.name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace %d: emitted %v, declared %v", w, trace, got, want)
			}
			if trace == 1 {
				if _, err := os.Stat(o.outDir + "/trace_" + w + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			}
			if left, _ := os.ReadDir(o.outDir + "/tmp"); len(left) != 0 {
				t.Errorf("%s trace %d: %d temporary directories left behind", w, trace, len(left))
			}
		}
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(v, n=4), which the acceptance rule is written in.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestMidmean(t *testing.T) {
	// Two wild slices in eight (one each side) leave the result alone.
	if got := midmean([]float64{1000, 4, 3, 6, 5, 2, 7, -1000}); got != 4.5 {
		t.Errorf("midmean = %v, want 4.5", got)
	}
	if got := midmean([]float64{3}); got != 3 {
		t.Errorf("midmean of one = %v, want 3", got)
	}
	if got := midmean(nil); got != 0 {
		t.Errorf("midmean of none = %v, want 0", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {11, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {5000, 0.9}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
