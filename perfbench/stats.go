package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the mean of xs, or 0 for none.
func mean[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	var sum T
	for _, x := range xs {
		sum += x
	}
	return sum / T(len(xs))
}

// tailShare is the share of the slowest samples tail averages.
const tailShare = 0.05

// tailCount is how many of n samples tail averages: the slowest 5%, and
// at least one.
func tailCount(n int) int { return max(1, int(math.Ceil(tailShare*float64(n)))) }

// tail returns the mean of the slowest 5% of xs. A mean over a fixed share
// moves smoothly with the load, where a single order statistic of a load
// made of a few request classes jumps from one class to the next with
// the number of samples.
func tail[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return mean(s[len(s)-tailCount(len(s)):])
}

// resetPeakRSS returns the heap's free pages to the OS and restarts the
// process's resident-set high-water mark from the current resident set,
// so peakRSSMB covers only what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
