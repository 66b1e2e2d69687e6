// Command bench is the repository's one benchmark instrument: five
// workloads over the real serving and compression stacks, client-side
// end-to-end metrics, and a traced run that attributes time to layers.
// BENCHMARK.json at the repository root declares its contract; README.md
// beside this file explains every workload and metric.
//
// The directory is a module of its own (go.mod replaces seqstore with the
// parent directory) because the benchmark contract wants a compiled
// benchmark to carry its own build file; the root `go build/test ./...` do
// not reach it (README.md says what that costs), so it is run from inside:
//
//	go run -C bench seqstore/bench --workload point_read --seed 1 --seconds 15 --trace 0
//	cd bench && go run . -all            # every workload, each in a fresh process
//	cd bench && go run . -all -trace 1   # the traced (per-layer) run of each
//	cd bench && go run . -aa             # the matrix twice; fails on a bound breach
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value in the contract's output shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	firstErr error // the first failure the checks saw, for the operator
}

// fail counts n failed checks and keeps the first error seen; an error
// that comes without a count (a check that could not run) is one failure.
func (r *result) fail(n int, err error) {
	if n == 0 && err != nil {
		n = 1
	}
	r.Failed += n
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
}

// env stamps a result file with what the numbers were measured on.
type env struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	FirstError string  `json:"first_error,omitempty"`
}

// commit names the code the numbers are of: the revision stamped into the
// binary, or (go run stamps none) what git says the working tree is at.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown" // an exported checkout, as the benchmark driver makes
}

// newResult starts a result over one of the two declared metric lists.
func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// set records a declared metric; an undeclared name is a bug in this
// program, caught here so names cannot drift from BENCHMARK.json.
func (r *result) set(decls []decl, name string, v float64) {
	for _, d := range decls {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// fill reports every declared metric the run did not set as 0: the
// workload has no op that reaches that layer.
func (r *result) fill(decls []decl) {
	for _, d := range decls {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = metric{Unit: d.unit}
		}
	}
}

// print lists every metric by name with its unit.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// runSeconds is BENCHMARK.json's run_seconds, the window -all and -aa
// measure for unless told otherwise; bench_test.go keeps the two equal.
const runSeconds = 15

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	sz       sizes
}

// runOne executes one workload in this process and returns its result. A
// failed check marks the result incorrect; an error means the run could not
// be made at all.
func runOne(o options) (*result, error) {
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 {
		return runTraced(wl, o)
	}
	return runEndToEnd(wl, o)
}

// setupBudget bounds the time a run spends repeating its set-up. The
// benchmark contract gates setup_s on every workload and asks for the median
// of several set-ups per run; a single 0.06 s set-up (compress_batch) spread
// far more than its bound from run to run.
const setupBudget = 6 * time.Second

// runEndToEnd is the untraced run: set up (several times, for a steady
// setup_s), drive the closed loop, verify, report what a user would see.
func runEndToEnd(wl workload, o options) (*result, error) {
	root := filepath.Join(o.outDir, "tmp")
	// Set up repeatedly while the repeats fit setupBudget, so a set-up
	// that takes a tenth of a second is timed SetupReps times and one that
	// takes eight seconds is timed once.
	var setups []float64
	var rg *rig
	var spent time.Duration
	for rep := 0; rep < o.sz.SetupReps; rep++ {
		if rg != nil {
			rg.close()
		}
		var err error
		if rg, err = newRig(wl, o.sz, root); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := rg.stage.total()
		setups = append(setups, d.Seconds())
		if spent += d; spent+d > setupBudget {
			break
		}
	}
	defer func() { rg.close() }()

	res := newResult()
	set := func(name string, v float64) { res.set(endToEnd, name, v) }
	set("setup_s", median(setups))

	var rss float64
	if wl.topo == topoNone {
		settle()
		cr := driveCompress(rg, o.seconds)
		rss = peakRSSMB()
		res.Attempted = cr.attempted
		res.fail(cr.failed, cr.firstErr)
		// A percentile stands on the samples beyond it, ten at least. A
		// window holds about eleven ops, all the same work: the slow end
		// is the median too, until a window holds more than twenty.
		lat := durationsMs(cr.lat)
		set("ops_per_s", cr.opsPerSec())
		set("primary_p50_ms", median(lat))
		set("primary_p90_ms", quantile(lat, tailQuantile(len(lat))))
		set("rmspe_pct", cr.rmspePct)
		set("space_ratio", cr.space)
	} else {
		rmspe, space, err := quality(rg.x, rg.ref)
		if err != nil {
			return nil, fmt.Errorf("quality: %w", err)
		}
		set("rmspe_pct", rmspe)
		set("space_ratio", space)
		if space > budget {
			res.fail(1, fmt.Errorf("space ratio %.4f exceeds the %.2f budget", space, budget))
		}
		rg.x = nil // 8 bytes a cell the serving process would not hold

		st := newStream(wl, o.sz, o.seed, numClients(), wl.rows(o.sz), o.sz.Cols)
		settle()
		r := drive(rg, st, o.seconds)
		attempted, failed, _, _, err := r.totals()
		res.Attempted += attempted
		res.fail(failed, err)
		set("ops_per_s", r.opsPerSec())
		set("primary_p50_ms", r.percentileMs(wl.primary, 0.50))
		set("primary_p90_ms", r.percentileMs(wl.slow, 0.90))

		rss = peakRSSMB() // the serving process's; verification is the benchmark's own work
		checked, wrong, err := r.verifyAggregates()
		if wl.topo == topoWritable {
			checked, wrong, _, err = r.verifyDurability()
		}
		res.Attempted += checked
		res.fail(wrong, err)
	}
	set("peak_rss_mb", rss)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// finish prints a result the way the contract wants it — every metric by
// name with its unit, then the JSON object as the last line — and writes
// the stamped copy under the output directory.
func finish(o options, res *result) error {
	decls := endToEnd
	name := o.workload + ".json"
	if o.trace != 0 {
		decls = perLayer
		name = "layers_" + name
	}
	res.fill(decls)
	res.print()
	stamp := struct {
		Env env `json:"env"`
		*result
	}{Env: env{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Clients: numClients(),
		GoVersion: runtime.Version(), Commit: commit(),
	}, result: res}
	if res.firstErr != nil {
		stamp.Env.FirstError = res.firstErr.Error()
		fmt.Fprintln(os.Stderr, "bench: first failure:", res.firstErr)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(stamp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: the traced per-layer run")
	all := flag.Bool("all", false, "run every workload, each in a fresh child process")
	aa := flag.Bool("aa", false, "run the whole matrix twice and compare the two sets against the bounds in BENCHMARK.json")
	flag.Parse()
	o.sz = fullSizes
	o.outDir = "out" // bench/out: go run -C bench puts us in bench/

	// The numbers are for the multi-core deployment; a single-threaded
	// run on a multi-core box would silently measure something else.
	if runtime.GOMAXPROCS(0) == 1 && runtime.NumCPU() > 1 {
		fmt.Fprintln(os.Stderr, "bench: GOMAXPROCS=1 on a", runtime.NumCPU(), "CPU machine; refusing to measure")
		os.Exit(2)
	}
	var err error
	switch {
	case *aa:
		err = runAA(o)
	case *all:
		err = runAll(o)
	case o.workload == "":
		flag.Usage()
		os.Exit(2)
	default:
		var res *result
		if res, err = runOne(o); err == nil {
			if err = finish(o, res); err == nil && !res.Correct {
				err = errors.New("correctness checks failed")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
