package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailQuantile is the slow end reported for a sample of n: p90, or the
// highest quantile that still has ten samples beyond it, or the median.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.9, 1-10/float64(n)))
}

// median sorts a copy of v and returns its middle value (mean of the two
// middle values for an even count); 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// midmean is the interquartile mean: v sorted, the lowest and the highest
// quarter dropped, the rest averaged. Over the window's slices it ignores
// two disturbed slices in eight like the median does, and wastes less of the
// others (the median of eight is the mean of only the middle two).
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance rule for this
// benchmark is written in.
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
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMs converts a latency sample to sorted milliseconds.
func durationsMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = ms(x)
	}
	sort.Float64s(out)
	return out
}

// medianDur returns the median of a duration sample in the given unit
// (ns per unit), 0 when empty.
func medianDur(d []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(unit)
	}
	return median(v)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc; it falls back to getrusage's ru_maxrss where /proc is missing.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(raw, []byte{'\n'}) {
			if !bytes.HasPrefix(line, []byte("VmHWM:")) {
				continue
			}
			f := bytes.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// settle puts the process in the state a freshly started server is in
// before the measured window opens: set-up garbage collected, freed pages
// returned to the OS, and the kernel's resident-set high-water mark
// restarted from what is resident now (Linux: "5" to
// /proc/self/clear_refs). Without it the collector's phase at the end of
// set-up decides how often it runs during the window, which moved p99 by a
// quarter from run to run. Where the mark cannot be restarted peak_rss_mb
// covers set-up too.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // absent off Linux; see above
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// storageBytesWritten returns the bytes this process has caused to be sent
// to the storage layer (write_bytes in /proc/self/io; socket traffic is not
// in it). 0 where the file is missing.
func storageBytesWritten() int64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("write_bytes:")); ok {
			n, _ := strconv.ParseInt(string(bytes.TrimSpace(rest)), 10, 64)
			return n
		}
	}
	return 0
}
