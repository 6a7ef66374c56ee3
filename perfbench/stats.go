package main

import (
	"math"
	"sort"
	"syscall"

	"specinterference/internal/stats"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 100*q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least ten samples above it, and false when n is too small
// for any such percentile.
func tailPercentile(n int) (int, bool) {
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if n <= 10 || p < 50 {
		return 0, false
	}
	return p, true
}

// cpuSeconds is the user+system CPU time of this process plus every child
// process it has waited for.
func cpuSeconds() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail with a valid who and buffer
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // likewise
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB is this process's peak resident set plus the largest peak of
// any child it has waited for, in MB of 10^6 bytes (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(self.Maxrss+kids.Maxrss) * 1024 / 1e6
}
