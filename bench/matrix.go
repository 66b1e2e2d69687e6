package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// child runs one workload in a fresh process, so that peak_rss_mb, heap
// state and page cache residue do not leak from one workload into the
// next. The child's report goes to our stdout; its result line is parsed.
func child(o options, workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(o.trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s seed %d: %d of %d checks failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, runErr
}

// runAll runs every workload once with the given seed and prints each
// one's metrics by name.
func runAll(o options) error {
	var firstErr error
	for _, w := range workloadNames {
		fmt.Printf("== %s (seed %d, %gs, trace %d)\n", w, o.seed, o.seconds, o.trace)
		res, err := child(o, w, o.seed)
		if res != nil {
			res.print()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// benchmarkFile is BENCHMARK.json as the contract lays it out.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end_to_end only
}

// readBenchmarkFile loads the declaration from the repository root, one
// directory up from this module.
func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// aaRuns is how many runs (seeds 1..aaRuns) each workload gets in each of
// -aa's two sets: as many as the benchmark driver takes quartiles over.
const aaRuns = 10

// runAA runs the end-to-end matrix twice on the same code — aaRuns seeds
// per workload per set — and holds the two sets to the rule the benchmark
// itself is held to: for every (metric, workload) the spread of each set
// (interquartile range over median, quartiles as Python's
// statistics.quantiles gives them) must stay within the metric's bound,
// setup_s excepted, and the second set's median may not be worse than the
// first's by more than the bound.
func runAA(o options) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return fmt.Errorf("-aa runs from the bench directory: %w", err)
	}
	o.trace = 0
	// values[set][workload][metric] = one value per seed
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range workloadNames {
			values[set][w] = make(map[string][]float64)
			for seed := int64(1); seed <= aaRuns; seed++ {
				res, err := child(o, w, seed)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					values[set][w][name] = append(values[set][w][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w, seed)
			}
		}
	}
	breaches := 0
	fmt.Printf("%-15s %-15s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "spreadA", "spreadB", "worse", "bound")
	for _, w := range workloadNames {
		for _, m := range bf.EndToEnd {
			if m.Bound == nil {
				return fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", m.Name)
			}
			bound := *m.Bound
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			q1a, medA, q3a := quartiles(a)
			q1b, medB, q3b := quartiles(b)
			spreadA, spreadB := (q3a-q1a)/medA, (q3b-q1b)/medB
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if (m.Name != "setup_s" && (spreadA > bound || spreadB > bound)) || worse > bound {
				flag = "  BREACH"
				breaches++
			}
			fmt.Printf("%-15s %-15s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				w, m.Name, medA, medB, 100*spreadA, 100*spreadB, 100*worse, 100*bound, flag)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d (metric, workload) pairs outside their bounds", breaches)
	}
	return nil
}
