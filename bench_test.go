// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment row in DESIGN.md. Each iteration runs the
// complete experiment on a fresh suite — trace-cache load, transform,
// replay sweep, table rendering — so `go test -bench=.` both measures the
// harness and proves every artifact regenerates. Component-level
// microbenchmarks live in the respective internal packages.
package overlapsim_test

import (
	"io"
	"testing"

	"overlapsim"
	"overlapsim/internal/experiment"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep"
)

// runExperiment times one experiment. Every iteration runs a fresh suite
// that shares only a primed on-disk trace cache with the others, so it
// pays the experiment's real replays (a reused suite's replay memo would
// answer them all) but no instrumented run — the paper's methodology also
// traces once and replays many times. Each iteration must redo exactly
// the cold run's replays and memo hits, with its traces loaded from the
// cache instead.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	d, err := experiment.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	cache := &sweep.TraceCache{Dir: b.TempDir()}
	suite := func() *experiment.Suite {
		s := experiment.NewSuite()
		s.Cache = cache
		return s
	}
	cold := suite()
	if err := d.Run(cold, io.Discard); err != nil {
		b.Fatal(err)
	}
	want := cold.Stats()
	if want.Traces == 0 || want.Replays == 0 {
		b.Fatalf("cold run did unexpected work: %+v", want)
	}
	want.Traces, want.TraceCacheHits = 0, want.Traces
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := suite()
		if err := d.Run(s, io.Discard); err != nil {
			b.Fatal(err)
		}
		if got := s.Stats(); got != want {
			b.Fatalf("iteration %d did %+v, want %+v", i, got, want)
		}
	}
}

// BenchmarkFig1Pipeline regenerates F1: the full trace -> Dimemas ->
// Paraver pipeline with the original/overlapped comparison.
func BenchmarkFig1Pipeline(b *testing.B) { runExperiment(b, "f1") }

// BenchmarkE1RealVsIdealPatterns regenerates finding 1: measured vs ideal
// computation patterns across the six applications.
func BenchmarkE1RealVsIdealPatterns(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkE2SpeedupTable regenerates finding 2: the per-application
// speedup table at intermediate bandwidth.
func BenchmarkE2SpeedupTable(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkE2fBandwidthSweep regenerates the implied per-app figure: the
// speedup-vs-bandwidth curves over the full grid.
func BenchmarkE2fBandwidthSweep(b *testing.B) { runExperiment(b, "e2f") }

// BenchmarkE3IsoPerformance regenerates finding 3: the iso-performance
// bandwidth-reduction table.
func BenchmarkE3IsoPerformance(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkA1Mechanisms regenerates the mechanism-isolation ablation.
func BenchmarkA1Mechanisms(b *testing.B) { runExperiment(b, "a1") }

// BenchmarkA2ChunkGranularity regenerates the chunk-count ablation.
func BenchmarkA2ChunkGranularity(b *testing.B) { runExperiment(b, "a2") }

// BenchmarkA3NetworkModel regenerates the network-parameter ablation.
func BenchmarkA3NetworkModel(b *testing.B) { runExperiment(b, "a3") }

// BenchmarkB1AnalyticBaseline regenerates the analytic-vs-simulated
// comparison against the Sancho et al. model.
func BenchmarkB1AnalyticBaseline(b *testing.B) { runExperiment(b, "b1") }

// BenchmarkS1Scaling regenerates the process-grid scaling extension.
func BenchmarkS1Scaling(b *testing.B) { runExperiment(b, "s1") }

// BenchmarkTraceSweep3D measures the tracing-tool stage alone on the
// largest workload: one fully instrumented parallel run.
func BenchmarkTraceSweep3D(b *testing.B) {
	env := overlapsim.NewEnvironment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app, err := overlapsim.NewApp("sweep3d", overlapsim.AppConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.Trace(app); err != nil {
			b.Fatal(err)
		}
	}
}

// btStudy traces the BT application at its default scale.
func btStudy(b *testing.B) (*overlapsim.Environment, *overlapsim.Study) {
	b.Helper()
	env := overlapsim.NewEnvironment()
	app, err := overlapsim.NewApp("bt", overlapsim.AppConfig{})
	if err != nil {
		b.Fatal(err)
	}
	study, err := env.Trace(app)
	if err != nil {
		b.Fatal(err)
	}
	return env, study
}

// BenchmarkCompile measures the once-per-trace-set replay preparation on
// the BT trace: trace.Validate plus the static pairing of sends, receives
// and waits.
func BenchmarkCompile(b *testing.B) {
	_, study := btStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Compile(study.Original()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayBT measures the Dimemas-like stage alone: replaying the
// BT trace on the default platform. The trace is compiled once and the
// benchmark owns its replayer, warmed once, both outside the timer, so
// every timed replay reuses warm scratch; a pooled replayer may go cold
// between iterations and change allocs/op from run to run.
func BenchmarkReplayBT(b *testing.B) {
	env, study := btStudy(b)
	prog, err := replay.Compile(study.Original())
	if err != nil {
		b.Fatal(err)
	}
	r := replay.NewReplayer()
	if _, err := r.Simulate(prog, env.Machine); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Simulate(prog, env.Machine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransformBT measures the overlap transformation alone, building
// a fresh study per iteration group so the variant cache cannot hide the
// cost.
func BenchmarkTransformBT(b *testing.B) {
	env := overlapsim.NewEnvironment()
	app, err := overlapsim.NewApp("bt", overlapsim.AppConfig{})
	if err != nil {
		b.Fatal(err)
	}
	study, err := env.Trace(app)
	if err != nil {
		b.Fatal(err)
	}
	ps := study.Profiled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := overlap.Transform(ps, overlap.Options{
			Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear}); err != nil {
			b.Fatal(err)
		}
	}
}
