// Command benchgate measures the working tree against a parent commit by
// the rule a change claiming a gain is held to: PAIRS alternating runs of
// one workload of the benchmark, seeds 1..PAIRS, the parent first on odd
// seeds. Per end-to-end metric of BENCHMARK.json it prints both medians,
// the parent's interquartile range, how many pairs the change won (ties
// count for neither side) and the change's median shift against the
// metric's bound. It exits non-zero if any run reports correct: false.
//
//	make bench-gate PARENT=HEAD WORKLOAD=point_read PAIRS=10
//	go run ./scripts/benchgate -parent HEAD -workload point_read -pairs 10
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
	workload := flag.String("workload", "point_read", "benchmark workload to run")
	pairs := flag.Int("pairs", 10, "alternating parent/change pairs, seeds 1..pairs")
	flag.Parse()
	if err := gate(*parent, *workload, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func gate(parent, workload string, pairs int) error {
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

	// values[side][metric] holds one value per pair, in seed order.
	var values [2]map[string][]float64
	sides := [2]string{"parent", "change"}
	incorrect := 0
	for seed := 1; seed <= pairs; seed++ {
		order := [2]int{0, 1}
		if seed%2 == 0 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			dir := filepath.Join(tmp, fmt.Sprintf("%s-%d", sides[side], seed))
			if err := os.Mkdir(dir, 0o755); err != nil {
				return err
			}
			r, err := runOnce(bins[side], dir, workload, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sides[side], seed, err)
			}
			if !r.Correct {
				incorrect++
			}
			if values[side] == nil {
				values[side] = make(map[string][]float64)
			}
			line := fmt.Sprintf("seed %d %s: correct=%v", seed, sides[side], r.Correct)
			for _, m := range decl.EndToEnd {
				v := r.Metrics[m.Name].Value
				values[side][m.Name] = append(values[side][m.Name], v)
				line += fmt.Sprintf(" %s=%.5g", m.Name, v)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}

	fmt.Printf("%s, %d pairs, %s against the working tree\n", workload, pairs, parent)
	fmt.Printf("%-15s %12s %12s %12s %6s %8s %6s\n", "metric", "parent", "change", "parent IQR", "wins", "shift", "bound")
	for _, m := range decl.EndToEnd {
		s := summarize(m, values[0][m.Name], values[1][m.Name])
		fmt.Printf("%-15s %12.5g %12.5g %12.5g %3d/%-2d %+7.2f%% %5.0f%%\n",
			m.Name, s.parent, s.change, s.iqr, s.wins, pairs, 100*s.shift, 100*m.Bound)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs reported correct: false", incorrect)
	}
	return nil
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

// summary is one metric's verdict over the pairs.
type summary struct {
	parent, change, iqr float64 // medians, and the parent's q3 − q1
	wins                int     // pairs the change read strictly better in
	shift               float64 // (change − parent) / parent median, > 0 when better
}

func summarize(m metric, parent, change []float64) summary {
	q1, med, q3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	s := summary{parent: med, change: cmed, iqr: q3 - q1}
	for k := range parent {
		if sign*(change[k]-parent[k]) > 0 {
			s.wins++
		}
	}
	if med != 0 {
		s.shift = sign * (cmed - med) / math.Abs(med)
	}
	return s
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
