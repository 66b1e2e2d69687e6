// Command experiments regenerates every table and figure of the paper's
// evaluation section. Run with no arguments for the full suite, or name
// specific experiments:
//
//	experiments [flags] [toy fig6 gzip table3 fig8 fig9 fig10 table4 kopt sampling viz spectral robust cube]
//
// Flags:
//
//	-n int            customers in the "phone" dataset (default 2000, as in
//	                  the paper's phone2000)
//	-large            run the full paper-scale sweep (N up to 100,000) for
//	                  the scale-up experiments
//	-csv dir          also write raw experiment data as CSV files into dir
//	-workers int      worker goroutines for the compression passes
//	                  (0 = all CPUs, 1 = serial)
//
// Performance is measured by the benchmark in bench/ (see bench/README.md),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seqstore/internal/datacube"
	"seqstore/internal/experiments"
	"seqstore/internal/linalg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	phoneN := fs.Int("n", 2000, "customers in the phone dataset")
	large := fs.Bool("large", false, "paper-scale scale-up sweep (N up to 100,000)")
	csvDir := fs.String("csv", "", "directory to write raw CSV data (optional)")
	workers := fs.Int("workers", 0, "worker goroutines for the compression passes: 0 = all CPUs, 1 = serial")
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments.DefaultWorkers = *workers
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"toy", "fig6", "gzip", "table3", "fig8", "fig9",
			"fig10", "table4", "kopt", "sampling", "viz", "spectral", "robust",
			"cube"}
	}

	r := &runner{phoneN: *phoneN, large: *large, csvDir: *csvDir}
	for _, name := range names {
		start := time.Now()
		if err := r.runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

type runner struct {
	phoneN int
	large  bool
	csvDir string

	phone  *linalg.Matrix // lazily built
	stocks *linalg.Matrix
}

func (r *runner) phoneData() *linalg.Matrix {
	if r.phone == nil {
		r.phone = experiments.Phone(r.phoneN)
	}
	return r.phone
}

func (r *runner) stocksData() *linalg.Matrix {
	if r.stocks == nil {
		r.stocks = experiments.Stocks()
	}
	return r.stocks
}

func (r *runner) sizes() []int {
	if r.large {
		return experiments.LargeFig10Sizes
	}
	return experiments.DefaultFig10Sizes
}

func (r *runner) csv(name string, write func(f *os.File) error) error {
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.csvDir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *runner) runOne(name string) error {
	out := os.Stdout
	phoneName := fmt.Sprintf("phone%d", r.phoneN)
	switch name {
	case "toy":
		_, err := experiments.Toy(out)
		return err

	case "fig6":
		res, err := experiments.Fig6(r.phoneData(), phoneName, nil, out)
		if err != nil {
			return err
		}
		res2, err := experiments.Fig6(r.stocksData(), "stocks", nil, out)
		if err != nil {
			return err
		}
		return r.csv("fig6.csv", func(f *os.File) error {
			fmt.Fprintln(f, "dataset,s,cluster,dct,svd,svdd")
			for _, set := range []*experiments.Fig6Result{res, res2} {
				for _, row := range set.Rows {
					fmt.Fprintf(f, "%s,%g,%g,%g,%g,%g\n", set.Dataset,
						row.S, row.Cluster, row.DCT, row.SVD, row.SVDD)
				}
			}
			return nil
		})

	case "gzip":
		_, err := experiments.GzipRef(map[string]*linalg.Matrix{
			phoneName: r.phoneData(),
			"stocks":  r.stocksData(),
		}, out)
		return err

	case "table3":
		rows, err := experiments.Table3(r.phoneData(), nil, out)
		if err != nil {
			return err
		}
		return r.csv("table3.csv", func(f *os.File) error {
			fmt.Fprintln(f, "s,svd_abs,svdd_abs,svd_norm,svdd_norm")
			for _, row := range rows {
				fmt.Fprintf(f, "%g,%g,%g,%g,%g\n",
					row.S, row.SVDAbs, row.SVDDAbs, row.SVDNorm, row.SVDDNorm)
			}
			return nil
		})

	case "fig8":
		res, err := experiments.Fig8(r.phoneData(), 0.10, out)
		if err != nil {
			return err
		}
		return r.csv("fig8.csv", func(f *os.File) error {
			fmt.Fprintln(f, "rank,abs_error")
			for i, e := range res.Errors {
				fmt.Fprintf(f, "%d,%g\n", i+1, e)
			}
			return nil
		})

	case "fig9":
		rows, err := experiments.Fig9(r.phoneData(), experiments.Fig9Config{Seed: 1}, out)
		if err != nil {
			return err
		}
		return r.csv("fig9.csv", func(f *os.File) error {
			fmt.Fprintln(f, "s,qerr,rmspe")
			for _, row := range rows {
				fmt.Fprintf(f, "%g,%g,%g\n", row.S, row.QErr, row.RMSPE)
			}
			return nil
		})

	case "fig10":
		cells, err := experiments.Fig10(r.sizes(), nil, out)
		if err != nil {
			return err
		}
		return r.csv("fig10.csv", func(f *os.File) error {
			fmt.Fprintln(f, "n,s,rmspe")
			for _, c := range cells {
				fmt.Fprintf(f, "%d,%g,%g\n", c.N, c.S, c.RMSPE)
			}
			return nil
		})

	case "table4":
		rows, err := experiments.Table4(r.sizes(), out)
		if err != nil {
			return err
		}
		return r.csv("table4.csv", func(f *os.File) error {
			fmt.Fprintln(f, "n,svd_norm,svdd_norm")
			for _, row := range rows {
				fmt.Fprintf(f, "%d,%g,%g\n", row.N, row.SVDNorm, row.SVDDNorm)
			}
			return nil
		})

	case "kopt":
		_, err := experiments.KOpt(r.phoneData(), 0.10, out)
		return err

	case "sampling":
		_, err := experiments.SamplingComparison(r.phoneData(), nil, 50, out)
		return err

	case "viz":
		return experiments.Viz(map[string]*linalg.Matrix{
			phoneName: r.phoneData(),
			"stocks":  r.stocksData(),
		}, out)

	case "spectral":
		if _, err := experiments.Spectral(r.phoneData(), phoneName, nil, out); err != nil {
			return err
		}
		_, err := experiments.Spectral(r.stocksData(), "stocks", nil, out)
		return err

	case "robust":
		_, err := experiments.Robust(r.phoneData(), 0.10, nil, out)
		return err

	case "cube":
		_, err := experiments.Cube(datacube.SalesConfig{
			Products: 100, Stores: 16, Weeks: 52, Seed: 1,
		}, 0.10, out)
		return err

	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
