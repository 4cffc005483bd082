package main

import (
	"runtime"
	"slices"
	"time"
)

// refSink keeps the reference kernel's result live.
var refSink int

// refKernel times a fixed CPU and memory workload that shares no code with
// overlapsim: xorshift fills, sorts and map updates over 128K ints, about
// 160 ms on the 2-vCPU host this was written on. The end-to-end times are
// reported in units of it, so a change to overlapsim moves them and a
// change in host speed does not. A full collection runs first, untimed, so
// the kernel never pays for the garbage or live heap the measured work
// left behind.
func refKernel() time.Duration {
	runtime.GC()
	t0 := time.Now()
	x := uint64(88172645463325252)
	xs := make([]int, 1<<17)
	m := map[int]int{}
	for r := 0; r < 8; r++ {
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = int(x >> 33)
		}
		slices.Sort(xs)
		for i := 0; i < len(xs); i += 8 {
			m[xs[i]&0xffff] += i
		}
	}
	refSink = len(m) + xs[0]
	return time.Since(t0)
}
