// Command seqcompress compresses a .smx dataset into a randomly accessible
// .sqz store with any of the paper's methods.
//
//	seqcompress -in phone2000.smx -out phone2000.sqz -method svdd -budget 0.10
//	seqcompress -in stocks.smx -out stocks.sqz -method dct -k 12
//	seqcompress -in phone.smx -out phone.sqz -budget 0.10 -half -zero-flags
//
// It prints the achieved space ratio and, when -verify is given, the full
// reconstruction-error report against the input. With -progress the
// compression passes log structured start/done lines (shard counts,
// elapsed time) to stderr as they run — the long passes on a large
// out-of-core dataset are no longer silent.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"seqstore"
	"seqstore/internal/svd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "seqcompress:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("seqcompress", flag.ContinueOnError)
	in := fs.String("in", "", "input .smx dataset (required)")
	out := fs.String("out", "", "output .sqz store (required)")
	method := fs.String("method", "svdd", "method: svdd, svd, dct, wavelet, cluster, kmeans")
	budget := fs.Float64("budget", 0, "space budget as a fraction of the input, e.g. 0.10")
	k := fs.Int("k", 0, "components/clusters (overrides -budget derivation)")
	half := fs.Bool("half", false, "store numbers as float32 (b=4): half the file, ~1e-7 rounding")
	robust := fs.Bool("robust", false, "outlier-resistant factors (svd/svdd; loads the matrix into memory)")
	zeroFlags := fs.Bool("zero-flags", false, "flag all-zero rows for instant reconstruction (svdd)")
	workers := fs.Int("workers", 0, "worker goroutines for the compression passes (svd/svdd): 0 = all CPUs, 1 = serial")
	compressor := fs.String("compressor", "gram", "factor algorithm (svd/svdd): gram builds the M×M similarity matrix; randomized streams an O(M·(k+p))-memory sketch — use it when sequences are very long")
	powerIters := fs.Int("power-iters", 0, "randomized compressor refinement passes (one extra streaming pass each): 0 = method default, -1 = none")
	verify := fs.Bool("verify", false, "report reconstruction error against the input")
	progress := fs.Bool("progress", false, "log per-pass compression progress to stderr")
	logFormat := fs.String("log-format", "text", "progress log format: json or text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	if *progress {
		var h slog.Handler
		switch *logFormat {
		case "json":
			h = slog.NewJSONHandler(os.Stderr, nil)
		case "text":
			h = slog.NewTextHandler(os.Stderr, nil)
		default:
			return fmt.Errorf("unknown -log-format %q (want json|text)", *logFormat)
		}
		// The compression passes (accumulate C, eigendecompose, project U)
		// log start/done lines with shard counts and elapsed time.
		svd.SetProgressLogger(slog.New(h))
	}

	opts := seqstore.Options{
		Method:        seqstore.Method(*method),
		Budget:        *budget,
		K:             *k,
		HalfPrecision: *half,
		Robust:        *robust,
		FlagZeroRows:  *zeroFlags,
		Workers:       *workers,
		Compressor:    *compressor,
		PowerIters:    *powerIters,
	}
	start := time.Now()
	st, err := seqstore.CompressFile(*in, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := st.Save(*out); err != nil {
		return err
	}
	rows, cols := st.Dims()
	fmt.Printf("%s: %d×%d compressed with %s to %.2f%% of original (%d stored numbers) in %v\n",
		*out, rows, cols, st.Method(), 100*st.SpaceRatio(), st.StoredNumbers(),
		elapsed.Round(time.Millisecond))
	if info, ok := st.SVDDInfo(); ok {
		fmt.Printf("svdd: k_opt=%d of k_max=%d, %d outlier deltas\n",
			info.K, info.KMax, info.Outliers)
	}
	if *verify {
		x, err := seqstore.LoadMatrix(*in)
		if err != nil {
			return err
		}
		rep, err := st.Evaluate(x)
		if err != nil {
			return err
		}
		fmt.Println("verify:", rep)
	}
	return nil
}
