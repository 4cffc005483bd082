package sweep

import (
	"fmt"
	"runtime"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/units"
)

// BenchmarkSweep measures a representative bandwidth × chunk × mechanism
// sweep at several worker counts. The trace caches are primed before the
// timer so the numbers isolate the fanned-out replay work — the stage the
// worker pool parallelizes.
func BenchmarkSweep(b *testing.B) {
	g := Grid{
		Apps: []string{"pingpong"},
		Bandwidths: []units.Bandwidth{16 * units.MBPerSec, 64 * units.MBPerSec,
			256 * units.MBPerSec, units.GBPerSec, 4 * units.GBPerSec, 16 * units.GBPerSec},
		Chunks:     []int{4, 8, 16},
		Mechanisms: []overlap.Mechanism{overlap.EarlySend, overlap.LateRecv, overlap.BothMechanisms},
	}
	// On a multi-core machine the second run shows the pool's speedup; on
	// a single core it degenerates to the serial cost plus noise.
	workerCounts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := NewRunner(machine.Default())
			r.Size = 512
			r.Iters = 2
			r.Engine = Engine{Workers: workers}
			if _, err := r.Run(g); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDense runs the acceptance-criterion 512-point dense grid with the
// surrogate fast path on or off. Every iteration runs a fresh Runner that
// shares only a primed on-disk trace cache with the others, so it pays the
// real replays (the replay memo of a reused Runner would answer them all)
// but no instrumented run. The two benchmarks exist as a pair — the
// recorded ratio between them is the fast path's headline speedup on its
// target workload shape.
func benchDense(b *testing.B, approx bool) {
	g := denseGrid()
	cache := &TraceCache{Dir: b.TempDir()}
	cold := denseRunner(approx)
	cold.Cache = cache
	if _, err := cold.Run(g); err != nil {
		b.Fatal(err)
	}
	want := cold.Stats()
	if want.Traces != 1 || want.Replays == 0 || approx != (want.PredictedPoints > 0) {
		b.Fatalf("cold run did unexpected work: %+v", want)
	}
	// Each iteration must redo the cold run's replays, memo hits and
	// predictions, with its one trace loaded from the cache instead.
	want.Traces, want.TraceCacheHits = 0, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := denseRunner(approx)
		r.Cache = cache
		if _, err := r.Run(g); err != nil {
			b.Fatal(err)
		}
		if got := r.Stats(); got != want {
			b.Fatalf("iteration %d did %+v, want %+v", i, got, want)
		}
	}
}

// BenchmarkSweepDenseExact is the exact-mode half of the surrogate pair:
// every one of the 512 grid points is replayed.
func BenchmarkSweepDenseExact(b *testing.B) { benchDense(b, false) }

// BenchmarkSweepDenseApprox is the fast-path half: anchors plus refinement
// plus spot checks replay, interpolation fills the rest (~21% of the exact
// replay count at the default 2% error bound).
func BenchmarkSweepDenseApprox(b *testing.B) { benchDense(b, true) }
