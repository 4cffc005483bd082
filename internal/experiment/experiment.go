// Package experiment is the harness that regenerates the paper's
// evaluation: every finding of section III plus the ablations the
// environment was explicitly designed to support (studying each
// overlapping mechanism separately, chunk granularity, network parameters)
// and the comparison against the Sancho et al. analytical baseline.
//
// Experiment identifiers follow DESIGN.md:
//
//	F1  — the Fig. 1 pipeline, end to end, with visual comparison
//	E1  — real vs ideal computation patterns (finding 1)
//	E2  — per-app speedup at intermediate bandwidth (finding 2)
//	E2f — speedup vs bandwidth curves (the implied per-app figure)
//	E3  — iso-performance bandwidth reduction (finding 3)
//	A1  — mechanism ablation (early-send / late-recv / both)
//	A2  — chunk-count ablation
//	A3  — network-parameter ablation (buses, eager threshold)
//	B1  — analytic baseline vs simulation
//	S1  — wavefront overlap benefit vs process-grid size (extension)
//
// Every experiment of a Suite runs on one sweep.Runner, the trace-once,
// replay-memoized pipeline behind the sweep CLI, serve and campaign: each
// workload is traced once, and each (trace variant, platform) pair is
// replayed once per suite however many experiments ask for it. Suite.Stats
// reports that work. Only F1 calls the replayer directly, because it
// renders the replays' timelines.
package experiment

import (
	"fmt"
	"math"
	"sync/atomic"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// Pipeline is a handle on one workload of a suite: its queries run on the
// suite's sweep.Runner, which traces the workload once and memoizes every
// transformation and replay, so sweeps and searches that revisit a
// (variant, platform) pair — within an experiment or across experiments —
// replay it once. Handles are cheap values, safe for concurrent use.
type Pipeline struct {
	r *sweep.Runner
	w sweep.Workload
}

// Profiled returns the workload's profiled trace set.
func (pl Pipeline) Profiled() (*overlap.ProfiledSet, error) { return pl.r.Profiled(pl.w) }

// VariantSet returns the overlapped trace for the given options.
func (pl Pipeline) VariantSet(opts overlap.Options) (*trace.Set, error) {
	prog, err := pl.r.VariantProgram(pl.w, opts)
	if err != nil {
		return nil, err
	}
	return prog.Set(), nil
}

// Original replays the non-overlapped trace on the platform.
func (pl Pipeline) Original(m machine.Config) (replay.Summary, error) {
	return pl.r.Original(pl.w, m)
}

// Overlapped replays an overlapped variant on the platform.
func (pl Pipeline) Overlapped(m machine.Config, opts overlap.Options) (replay.Summary, error) {
	return pl.r.Overlapped(pl.w, opts, m)
}

// Speedup replays both executions and returns T_original / T_overlapped.
func (pl Pipeline) Speedup(m machine.Config, opts overlap.Options) (float64, error) {
	orig, err := pl.Original(m)
	if err != nil {
		return 0, err
	}
	over, err := pl.Overlapped(m, opts)
	if err != nil {
		return 0, err
	}
	if over.Total <= 0 {
		return 1, nil
	}
	return float64(orig.Total) / float64(over.Total), nil
}

// bandwidthGrid returns the logarithmic bandwidth grid shared by the
// sweeps: powers of two from 1 MB/s to 64 GB/s.
func bandwidthGrid() []units.Bandwidth {
	var out []units.Bandwidth
	for bw := units.Bandwidth(units.MBPerSec); bw <= 64*units.GBPerSec; bw *= 2 {
		out = append(out, bw)
	}
	return out
}

// IntermediateBandwidth locates the paper's "intermediate" regime: the
// bandwidth at which the original execution spends a time in communication
// comparable to computation (mean blocked fraction closest to 0.5). The
// search is a deterministic sweep over the logarithmic grid; its replays
// are memoized by the runner, so every experiment that anchors on the same
// regime pays the grid once.
func (pl Pipeline) IntermediateBandwidth(base machine.Config) (units.Bandwidth, error) {
	best := units.Bandwidth(0)
	bestDist := math.Inf(1)
	for _, bw := range bandwidthGrid() {
		res, err := pl.Original(base.WithBandwidth(bw))
		if err != nil {
			return 0, err
		}
		if d := math.Abs(res.Blocked - 0.5); d < bestDist {
			bestDist, best = d, bw
		}
	}
	return best, nil
}

// IsoBandwidth finds the minimum bandwidth at which the overlapped
// execution matches (within tol) the original execution's runtime on the
// reference bandwidth — finding 3's measurement. ok is false when even the
// reference bandwidth cannot reach the target with overlap.
func (pl Pipeline) IsoBandwidth(base machine.Config, ref units.Bandwidth, opts overlap.Options, tol float64) (units.Bandwidth, bool, error) {
	origRef, err := pl.Original(base.WithBandwidth(ref))
	if err != nil {
		return 0, false, err
	}
	target := float64(origRef.Total) * (1 + tol)
	meets := func(bw units.Bandwidth) (bool, error) {
		res, err := pl.Overlapped(base.WithBandwidth(bw), opts)
		if err != nil {
			return false, err
		}
		return float64(res.Total) <= target, nil
	}
	okAtRef, err := meets(ref)
	if err != nil {
		return 0, false, err
	}
	if !okAtRef {
		return 0, false, nil
	}
	// Binary search in log space: runtime is non-increasing in bandwidth.
	lo, hi := math.Log(float64(64*units.KBPerSec)), math.Log(float64(ref))
	okAtLo, err := meets(units.Bandwidth(math.Exp(lo)))
	if err != nil {
		return 0, false, err
	}
	if okAtLo {
		return units.Bandwidth(math.Exp(lo)), true, nil
	}
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(units.Bandwidth(math.Exp(mid)))
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return units.Bandwidth(math.Exp(hi)), true, nil
}

// Suite binds the experiment set to a platform and problem scale. Its
// experiments run on one sweep.Runner, built on first use from Machine,
// Workers and Cache; configure those before the first experiment.
type Suite struct {
	// Machine is the base platform; bandwidth is swept per experiment.
	Machine machine.Config
	// Chunks is the partition granularity (default 8).
	Chunks int
	// Quick shrinks the workloads for fast runs (tests, smoke benches).
	Quick bool
	// Workers bounds the sweep worker pool the experiments fan out on;
	// 0 means one worker per CPU. Results are identical for any value.
	Workers int
	// Cache, when non-nil, persists profiled trace sets across processes,
	// so repeated experiment runs skip the instrumented runs. Results are
	// identical with a cold, warm or absent cache.
	Cache *sweep.TraceCache

	r atomic.Pointer[sweep.Runner]
}

// NewSuite returns a suite on the default platform.
func NewSuite() *Suite {
	return &Suite{Machine: machine.Default(), Chunks: 8}
}

// runner returns the suite's runner, building it on first use. Concurrent
// first uses may each build one; a single one is kept.
func (s *Suite) runner() *sweep.Runner {
	if r := s.r.Load(); r != nil {
		return r
	}
	s.r.CompareAndSwap(nil, &sweep.Runner{
		Base: s.Machine, Engine: sweep.Engine{Workers: s.Workers}, Cache: s.Cache})
	return s.r.Load()
}

// Stats returns the work the suite's experiments did so far: instrumented
// runs, trace-cache hits, replays and replay-memo hits. F1's two timeline
// replays run outside the runner and are not counted.
func (s *Suite) Stats() sweep.Counters { return s.runner().Stats() }

// AppConfig returns the workload configuration the suite uses for an app.
func (s *Suite) AppConfig(name string) apps.Config {
	spec, err := apps.Lookup(name)
	if err != nil {
		return apps.Config{}
	}
	cfg := spec.Default
	if s.Quick {
		switch name {
		case "pingpong":
			cfg = apps.Config{Ranks: 2, Size: 512, Iterations: 2}
		case "bt":
			cfg = apps.Config{Ranks: 4, Size: 10, Iterations: 2}
		case "sweep3d":
			cfg = apps.Config{Ranks: 4, Size: 256, Iterations: 1}
		case "cg":
			cfg = apps.Config{Ranks: 4, Size: 1024, Iterations: 2}
		default:
			cfg = apps.Config{Ranks: 4, Size: spec.Default.Size / 2, Iterations: 2}
		}
	}
	return cfg
}

// PipelineFor returns the pipeline of the app at the suite's scale,
// tracing it on first use (once per suite, even for concurrent callers).
func (s *Suite) PipelineFor(name string) (Pipeline, error) {
	cfg := s.AppConfig(name)
	return s.Pipeline(sweep.Workload{App: name, Ranks: cfg.Ranks, Size: cfg.Size, Iters: cfg.Iterations, Chunks: s.Chunks})
}

// Pipeline returns the pipeline of an arbitrary workload, e.g. one scaled
// beyond the suite defaults (S1's rank sweep), tracing it on first use.
// With a trace cache a cached profiled set skips the instrumented run and
// a fresh trace is stored for later runs.
func (s *Suite) Pipeline(w sweep.Workload) (Pipeline, error) {
	pl := Pipeline{r: s.runner(), w: w}
	if _, err := pl.Profiled(); err != nil {
		return Pipeline{}, err
	}
	return pl, nil
}

// bothLinear and bothReal are the two headline variants.
var (
	bothLinear = overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear}
	bothReal   = overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal}
)

// PaperE2 holds the speedups the paper reports at intermediate bandwidth
// with ideal patterns (percent gains), for side-by-side comparison.
var PaperE2 = map[string]float64{
	"bt":      30,
	"cg":      10,
	"pop":     10,
	"alya":    40,
	"specfem": 65,
	"sweep3d": 160,
}

func fmtBW(bw units.Bandwidth) string { return bw.String() }

func fmtPct(p float64) string { return fmt.Sprintf("%+.1f%%", p) }
