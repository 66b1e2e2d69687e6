package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"seqstore/internal/core"
	"seqstore/internal/store"
)

// compressRun is compress_batch's measured window: the same modules as the
// serving workloads, used the other way round — sequential scans and Gram
// accumulation instead of random row reads and dots.
type compressRun struct {
	lat       []time.Duration
	attempted int
	failed    int
	firstErr  error
	rmspePct  float64
	space     float64
}

// opsPerSec is the closed loop's rate, derived rather than counted: every
// client completes one op per median op time, so it is clients × 1000 /
// primary_p50_ms and gates the same measurement. (Counting completions
// instead would quantize: a window holds three or four ops per client.)
func (r *compressRun) opsPerSec() float64 {
	return float64(numClients()) * 1000 / median(durationsMs(r.lat))
}

// compressOp is one seqcompress invocation: out-of-core core.Compress of
// the rig's .smx with default options, then an atomic save to out.
func compressOp(rg *rig, out string) (*core.Store, time.Duration, error) {
	t := time.Now()
	st, err := compressFile(rg.smxPath)
	if err != nil {
		return nil, 0, err
	}
	if err := store.SaveLabeled(out, st, nil); err != nil {
		return nil, 0, err
	}
	return st, time.Since(t), nil
}

// driveCompress is the closed loop of the other workloads with compressions
// for requests: each client repeats the op until the window is used up (one
// untimed op first, so page cache and heap are warm). Every op's store must
// fit the budget and reconstruct the data exactly as well as the first one
// did: a compressor that got faster by getting worse or bigger must show.
//
// Two clients rather than one keep both CPUs busy through the eigensolve,
// the single-threaded two thirds of an op. On the 2-vCPU box this was
// written on each vCPU is at times 28 % faster for a minute; a lone
// compression inherits the speed of whichever vCPU its eigensolve lands on,
// and ten one-client runs spread 15 %.
func driveCompress(rg *rig, seconds float64) *compressRun {
	r := &compressRun{}
	var mu sync.Mutex // guards r; taken once per op, seconds apart
	fail := func(err error) {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	warm, _, err := compressOp(rg, filepath.Join(rg.dir, "out.sqz"))
	if err == nil {
		r.rmspePct, r.space, err = quality(rg.x, warm)
	}
	if err != nil {
		r.attempted++
		fail(err)
		return r
	}
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < numClients(); c++ {
		wg.Add(1)
		go func(out string) {
			defer wg.Done()
			for time.Since(start) < window {
				st, d, err := compressOp(rg, out)
				var rmspe, space float64
				if err == nil {
					// The benchmark's own work, outside the op's time.
					rmspe, space, err = quality(rg.x, st)
				}
				mu.Lock()
				r.attempted++
				switch {
				case err != nil:
					fail(err)
				case space > budget:
					fail(fmt.Errorf("compress: space ratio %.4f exceeds the %.2f budget", space, budget))
				case math.Abs(rmspe-r.rmspePct) > 1e-9*r.rmspePct:
					fail(fmt.Errorf("compress: rmspe %.12g%% differs from the first op's %.12g%%", rmspe, r.rmspePct))
				}
				if err == nil {
					r.lat = append(r.lat, d)
				}
				mu.Unlock()
			}
		}(filepath.Join(rg.dir, fmt.Sprintf("out%d.sqz", c)))
	}
	wg.Wait()
	return r
}
