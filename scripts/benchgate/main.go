// Command benchgate measures the working tree against a parent commit by
// the rules a change is held to: PAIRS alternating runs of each workload of
// the benchmark, seeds 1..PAIRS, the parent first on odd seeds. Per
// end-to-end metric of BENCHMARK.json it prints both medians, the parent's
// interquartile range, how many pairs the change won (ties count for
// neither side), the change's median shift and the metric's bound, and a
// verdict: WORSE when the change's median is worse than the parent's by
// more than the bound (the rule a change claiming no gain is held to),
// unresolved when either side's runs spread wider than the bound and not
// every change run beats every parent run, ok otherwise. It exits non-zero
// if any metric is WORSE, any run reports correct: false, or any op
// failed. -first-seed moves the seeds to FIRST..FIRST+PAIRS−1, for a second
// sample on seeds the first did not use.
//
//	make bench-gate PARENT=HEAD WORKLOAD=point_read,agg_adhoc PAIRS=10
//	go run ./scripts/benchgate -parent HEAD -workload point_read,agg_adhoc -pairs 10
//
// Before it runs anything it prints where the linker put a fixed list of hot
// functions in each side's binary, as the address mod 64 (go tool nm): a
// tight loop's speed can swing with its alignment alone, so a metric that
// moved in code the change did not touch is only believed once this table
// shows that code did not move.
//
// The parent's tree is exported with git archive into a temporary
// directory, so the repository's .git is left as it was. Each side's
// benchmark binary is built once, and every run starts in a temporary
// directory of its own, so neither tree's bench/out is written.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// run is what one benchmark run reports on its last line of output.
type run struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metric is one end-to-end declaration of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	parent := flag.String("parent", "HEAD", "git revision the working tree is measured against")
	workloads := flag.String("workload", "point_read", "benchmark workloads to run, comma-separated")
	pairs := flag.Int("pairs", 10, "alternating parent/change pairs per workload")
	firstSeed := flag.Int("first-seed", 1, "seed of the first pair; pair p runs seed first-seed+p-1")
	flag.Parse()
	if err := gate(*parent, strings.Split(*workloads, ","), *pairs, *firstSeed); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func gate(parent string, workloads []string, pairs, firstSeed int) error {
	if pairs < 1 {
		return errors.New("-pairs must be at least 1")
	}
	top, err := output("git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root := strings.TrimSpace(top)
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	tree := filepath.Join(tmp, "parent")
	tarball := filepath.Join(tmp, "parent.tar")
	if err := os.Mkdir(tree, 0o755); err != nil {
		return err
	}
	if _, err := output("git", "-C", root, "archive", "-o", tarball, parent); err != nil {
		return err
	}
	if _, err := output("tar", "-xf", tarball, "-C", tree); err != nil {
		return err
	}
	bins := [2]string{filepath.Join(tmp, "parent.bench"), filepath.Join(tmp, "change.bench")}
	for side, src := range [2]string{tree, root} {
		if _, err := output("go", "build", "-C", filepath.Join(src, "bench"), "-o", bins[side], "."); err != nil {
			return err
		}
	}
	if err := printLayout(bins); err != nil {
		return err
	}
	var problems []string
	for _, workload := range workloads {
		p, err := measure(bins, tmp, strings.TrimSpace(workload), parent, pairs, firstSeed, decl.EndToEnd)
		if err != nil {
			return err
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

// measure runs one workload's pairs, prints its table, and returns what
// breaks the gate.
func measure(bins [2]string, tmp, workload, parent string, pairs, firstSeed int, metrics []metric) ([]string, error) {
	// values[side][metric] holds one value per pair, in seed order.
	var values [2]map[string][]float64
	sides := [2]string{"parent", "change"}
	incorrect, failed := 0, 0
	for seed := firstSeed; seed < firstSeed+pairs; seed++ {
		order := [2]int{0, 1}
		if seed%2 == 0 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			dir := filepath.Join(tmp, fmt.Sprintf("%s-%s-%d", workload, sides[side], seed))
			if err := os.Mkdir(dir, 0o755); err != nil {
				return nil, err
			}
			r, err := runOnce(bins[side], dir, workload, seed)
			if err != nil {
				return nil, fmt.Errorf("%s %s seed %d: %w", workload, sides[side], seed, err)
			}
			if !r.Correct {
				incorrect++
			}
			failed += r.Failed
			if values[side] == nil {
				values[side] = make(map[string][]float64)
			}
			line := fmt.Sprintf("%s seed %d %s: correct=%v failed=%d", workload, seed, sides[side], r.Correct, r.Failed)
			for _, m := range metrics {
				v := r.Metrics[m.Name].Value
				values[side][m.Name] = append(values[side][m.Name], v)
				line += fmt.Sprintf(" %s=%.5g", m.Name, v)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}

	var problems []string
	fmt.Printf("%s, %d pairs (seeds %d–%d), %s against the working tree\n", workload, pairs, firstSeed, firstSeed+pairs-1, parent)
	fmt.Printf("%-15s %12s %12s %12s %6s %8s %6s  %s\n", "metric", "parent", "change", "parent IQR", "wins", "shift", "bound", "verdict")
	for _, m := range metrics {
		s := summarize(m, values[0][m.Name], values[1][m.Name])
		v := s.verdict(m.Bound)
		fmt.Printf("%-15s %12.5g %12.5g %12.5g %3d/%-2d %+7.2f%% %5.0f%%  %s\n",
			m.Name, s.parent, s.change, s.iqr, s.wins, pairs, 100*s.shift, 100*m.Bound, v)
		if v == "WORSE" {
			problems = append(problems, fmt.Sprintf("%s: %s is %.1f%% worse, bound %.0f%%", workload, m.Name, -100*s.shift, 100*m.Bound))
		}
	}
	if incorrect > 0 {
		problems = append(problems, fmt.Sprintf("%s: %d runs reported correct: false", workload, incorrect))
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%s: %d ops failed", workload, failed))
	}
	return problems, nil
}

// hotSymbols are the functions whose placement the compression, set-up and
// aggregate metrics are sensitive to: the Gram kernel, the top-γ selection,
// the pass-2 row scorer, the reconstruction kernels, the engine's U-row
// loop, the projected engine's row bound and row projection, the factored
// moments' staged kernel and the exact add behind it, and the point read.
var hotSymbols = []string{
	"seqstore/internal/linalg.AxpyRows",
	"seqstore/internal/pqueue.selectNth",
	"seqstore/internal/core.(*pass2State).row",
	"seqstore/internal/linalg.Dot",
	"seqstore/internal/linalg.DotRows",
	"seqstore/internal/linalg.DotBounds",
	"seqstore/internal/linalg.Axpy",
	"seqstore/internal/query.(*evalState).readURows",
	"seqstore/internal/query.(*evalWorker).project",
	"seqstore/internal/exact.(*Stage).AddMoments",
	"seqstore/internal/exact.(*Sum).Add",
	"seqstore/internal/core.(*Store).Cell",
}

// printLayout prints each hot symbol's address mod 64 in both binaries, "-"
// where a binary has no such symbol, and marks the rows where the two differ.
func printLayout(bins [2]string) error {
	var mods [2]map[string]uint64
	for side, bin := range bins {
		out, err := output("go", "tool", "nm", bin)
		if err != nil {
			return err
		}
		mods[side] = addrMod64(out, hotSymbols)
	}
	fmt.Printf("%-46s %6s %6s\n", "layout (address mod 64)", "parent", "change")
	for _, sym := range hotSymbols {
		cell := func(side int) string {
			if a, ok := mods[side][sym]; ok {
				return strconv.FormatUint(a, 10)
			}
			return "-"
		}
		moved := ""
		if cell(0) != cell(1) {
			moved = "  moved"
		}
		fmt.Printf("%-46s %6s %6s%s\n", sym, cell(0), cell(1), moved)
	}
	fmt.Println()
	return nil
}

// addrMod64 reads go tool nm output — "address type name" per line — and
// returns the address mod 64 of each wanted text symbol it lists.
func addrMod64(nm string, want []string) map[string]uint64 {
	wanted := make(map[string]bool, len(want))
	for _, w := range want {
		wanted[w] = true
	}
	mods := make(map[string]uint64)
	for _, line := range strings.Split(nm, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := strings.Join(f[2:], " ")
		if !wanted[name] {
			continue
		}
		if addr, err := strconv.ParseUint(f[0], 16, 64); err == nil {
			mods[name] = addr % 64
		}
	}
	return mods
}

// runOnce runs one benchmark binary in dir and parses its result line.
func runOnce(bin, dir, workload string, seed int) (run, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.Itoa(seed), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var r run
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return r, nil
}

// summary is one metric's measurement over the pairs.
type summary struct {
	parent, change, iqr float64 // medians, and the parent's q3 − q1
	wins                int     // pairs the change read strictly better in
	shift               float64 // (change − parent) / parent median, > 0 when better
	spread              float64 // the wider side's IQR over its median
	dominates           bool    // every change run better than every parent run
}

func summarize(m metric, parent, change []float64) summary {
	q1, med, q3 := quartiles(parent)
	c1, cmed, c3 := quartiles(change)
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	s := summary{parent: med, change: cmed, iqr: q3 - q1, dominates: len(change) > 0}
	for k := range parent {
		if sign*(change[k]-parent[k]) > 0 {
			s.wins++
		}
		for _, c := range change {
			s.dominates = s.dominates && sign*(c-parent[k]) > 0
		}
	}
	if med != 0 {
		s.shift = sign * (cmed - med) / math.Abs(med)
		s.spread = (q3 - q1) / math.Abs(med)
	}
	if cmed != 0 {
		s.spread = max(s.spread, (c3-c1)/math.Abs(cmed))
	}
	return s
}

// verdict is the no-gain rule: WORSE when the change's median is worse
// than the parent's by more than the bound, unresolved when the runs
// spread wider than the bound (the medians cannot be told apart) unless
// every run of the change reads better than every run of the parent, ok
// otherwise.
func (s summary) verdict(bound float64) string {
	switch {
	case s.shift < -bound:
		return "WORSE"
	case s.spread > bound && !s.dominates:
		return "unresolved"
	}
	return "ok"
}

// quartiles are Python's statistics.quantiles(n=4) (the exclusive method),
// the quartiles the benchmark's own rule takes: q2 is the median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// output runs a command and returns its stdout, with its stderr in the
// error when it fails.
func output(name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return string(out), nil
}
