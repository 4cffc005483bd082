package sweep

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// Runner executes grids: it traces every distinct Workload exactly once —
// the single instrumented run of the paper's methodology — caches the
// overlapped trace variants, compiles each trace set once into the replay
// Program all its replays run, memoizes replay results per (workload,
// variant, platform), and replays each grid point on its platform. The
// same trace-once, replay-memoized path answers single point queries
// (Profiled, VariantProgram, Original, Overlapped), which is how the paper
// experiments run on it. All methods are safe for concurrent use; the
// engine's workers share the caches.
type Runner struct {
	// work holds the live counters. Every access goes through the
	// sync/atomic functions; the fields stay plain int64 so Stats can copy
	// them out through counterTable, the one list of counters. It comes
	// first so its fields stay 64-bit aligned on 32-bit platforms.
	work Counters

	// Base is the platform every point starts from; a point's Bandwidth
	// (when non-negative) overrides the base network bandwidth.
	Base machine.Config
	// Size and Iters scale every traced workload; 0 keeps app defaults.
	Size  int
	Iters int
	// Engine is the worker pool configuration.
	Engine Engine
	// Cache, when non-nil, persists profiled trace sets on disk so that
	// repeated sweeps and sibling shards (other processes) skip the
	// instrumented run entirely. A present but undecodable entry is
	// ignored with a warning (TraceCache.Warn) and the workload re-traced;
	// cache writes are best-effort — a read-only or full cache directory
	// must not discard a trace that just succeeded. The first failed write
	// is reported by CacheStoreErr.
	Cache *TraceCache
	// DisableBatch turns off batched warm-replayer execution. By default a
	// grid that varies only platform axes for a workload routes all its
	// missing replays through one warm Replayer (replay.Program.Batch)
	// before the workers start, skipping per-point setup.
	DisableBatch bool
	// Store, when non-nil, persists replay results on disk (normally next
	// to the trace cache), so a warm re-run of an identical sweep — or a
	// sibling shard replaying the same (workload, variant, platform) —
	// skips the replay too, not just the trace. Like the trace cache it is
	// best-effort in both directions: a corrupt entry is recomputed with a
	// warning and a failed write surfaces through CacheStoreErr.
	Store *replaystore.Store
	// Approx enables the surrogate fast path: dense numeric axes are
	// partitioned into interpolation families, only an anchor subset per
	// family is replayed, and the remaining points are predicted by
	// monotone interpolation, guarded by deterministic spot-check replays
	// (see approx.go). Off (the default) the runner behaves byte-
	// identically to a build without the feature. Predicted results are
	// marked Approx and are never written to the replay store.
	Approx bool
	// ApproxMaxErr is the error-bound gate: a family whose spot-checked
	// relative error exceeds it is demoted to full replay. 0 means
	// DefaultApproxMaxErr.
	ApproxMaxErr float64
	// ApproxSpotCheck is the fraction of predicted points that are spot-
	// replayed per family (at least one). 0 means DefaultApproxSpotCheck.
	ApproxSpotCheck float64

	mu       sync.Mutex
	pipes    map[Workload]*pipeline
	memos    map[memoKey]*memoEntry
	storeErr error
}

// Counters is a snapshot of the runner's work and cache-hit accounting —
// the observable evidence that the caching layers actually cut work. It
// is also the `work` document of the serve API, hence the JSON tags.
type Counters struct {
	// Traces counts instrumented application runs executed by this runner.
	Traces int64 `json:"traces"`
	// TraceCacheHits counts workloads served from the persistent cache.
	TraceCacheHits int64 `json:"trace_cache_hits"`
	// Replays counts DES replays actually simulated.
	Replays int64 `json:"replays"`
	// ReplayMemoHits counts replays answered from the in-memory memo.
	ReplayMemoHits int64 `json:"replay_memo_hits"`
	// ReplayStoreHits counts replays answered from the persistent store —
	// work a previous process already paid for. A warm re-run of an
	// identical sweep shows Traces == 0 and Replays == 0 here.
	ReplayStoreHits int64 `json:"replay_store_hits"`
	// BatchedReplays counts the subset of Replays executed through the
	// batched warm-replayer path (one warm Replayer over a platform axis).
	BatchedReplays int64 `json:"batched_replays"`
	// PredictedPoints counts grid points answered by surrogate
	// interpolation instead of replay (-approx); 0 in exact mode. It and
	// the two surrogate counters below are omitted from JSON when zero,
	// so exact-mode documents are unchanged from earlier releases.
	PredictedPoints int64 `json:"predicted_points,omitempty"`
	// SpotCheckReplays counts the predicted points the error gate
	// replayed exactly to validate their families.
	SpotCheckReplays int64 `json:"spot_check_replays,omitempty"`
	// DemotedFamilies counts interpolation families whose spot checks
	// exceeded the error bound and were demoted to full replay.
	DemotedFamilies int64 `json:"demoted_families,omitempty"`
}

// counterTable lists every work counter once, in the order the work lines
// print them. Surrogate counters are printed only by -approx runs.
var counterTable = []struct {
	label     string
	field     func(*Counters) *int64
	surrogate bool
}{
	{"instrumented runs", func(c *Counters) *int64 { return &c.Traces }, false},
	{"trace-cache hits", func(c *Counters) *int64 { return &c.TraceCacheHits }, false},
	{"replays", func(c *Counters) *int64 { return &c.Replays }, false},
	{"replay-memo hits", func(c *Counters) *int64 { return &c.ReplayMemoHits }, false},
	{"replay-store hits", func(c *Counters) *int64 { return &c.ReplayStoreHits }, false},
	{"batched replays", func(c *Counters) *int64 { return &c.BatchedReplays }, false},
	{"predicted points", func(c *Counters) *int64 { return &c.PredictedPoints }, true},
	{"spot-check replays", func(c *Counters) *int64 { return &c.SpotCheckReplays }, true},
	{"demoted families", func(c *Counters) *int64 { return &c.DemotedFamilies }, true},
}

// Add returns the fieldwise sum of two counter snapshots — used to fold
// per-worker work accounting into campaign totals.
func (c Counters) Add(o Counters) Counters {
	for _, e := range counterTable {
		*e.field(&c) += *e.field(&o)
	}
	return c
}

// Sub returns the fieldwise difference c - o: the work done between two
// snapshots of the same runner.
func (c Counters) Sub(o Counters) Counters {
	for _, e := range counterTable {
		*e.field(&c) -= *e.field(&o)
	}
	return c
}

// WorkLine renders the counters as the body of the CLI's `work:` line:
// "N instrumented runs, N trace-cache hits, ...". The surrogate counters
// are appended only when approx is set, so exact-mode stderr stays
// byte-identical to earlier releases.
func (c Counters) WorkLine(approx bool) string {
	var b strings.Builder
	for _, e := range counterTable {
		if e.surrogate && !approx {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d %s", *e.field(&c), e.label)
	}
	return b.String()
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Counters {
	var c Counters
	for _, e := range counterTable {
		*e.field(&c) = atomic.LoadInt64(e.field(&r.work))
	}
	return c
}

// Workload names one traced application run: the app, its rank count,
// problem size and iterations (0 = the app's defaults), and the chunk
// granularity the tracer profiles at (0 = DefaultChunks). It keys the
// trace-once slots and the persistent trace cache, and — with the trace
// variant and the platform — the replay memo.
type Workload struct {
	App    string
	Ranks  int
	Size   int
	Iters  int
	Chunks int
}

// resolved applies the default chunk granularity, so that a workload
// asked for with Chunks 0 shares its trace with the explicit default.
func (w Workload) resolved() Workload {
	if w.Chunks == 0 {
		w.Chunks = DefaultChunks
	}
	return w
}

// workload resolves a grid point to the workload it replays: the point's
// app, ranks and chunks at the runner's problem scale.
func (r *Runner) workload(p Point) Workload {
	return Workload{App: p.App, Ranks: p.Ranks, Size: r.Size, Iters: r.Iters, Chunks: p.Chunks}.resolved()
}

// pipeline is one traced workload with its compiled original trace and
// its variant cache. The trace and the compile run under once, so
// concurrent points that share a workload wait for a single instrumented
// run instead of repeating it.
type pipeline struct {
	once sync.Once
	ps   *overlap.ProfiledSet
	orig *replay.Program
	err  error

	variants VariantCache
}

// NewRunner returns a runner on the given base platform with default scale.
func NewRunner(base machine.Config) *Runner {
	return &Runner{Base: base}
}

func (r *Runner) pipelineFor(w Workload) *pipeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pipes == nil {
		r.pipes = map[Workload]*pipeline{}
	}
	p, ok := r.pipes[w]
	if !ok {
		p = &pipeline{}
		r.pipes[w] = p
	}
	return p
}

// traced returns the workload's pipeline once its trace is in hand and
// compiled, tracing on first use.
func (r *Runner) traced(w Workload) (*pipeline, error) {
	w = w.resolved()
	p := r.pipelineFor(w)
	p.once.Do(func() {
		p.ps, p.err = r.profile(w)
		if p.err == nil {
			p.orig, p.err = replay.Compile(p.ps.Original)
		}
	})
	return p, p.err
}

// profile obtains the workload's profiled set: from the persistent cache
// when one is configured and a sibling process (an earlier sweep, another
// shard) already traced the workload, otherwise by an instrumented run,
// which is stored for them in turn.
func (r *Runner) profile(w Workload) (*overlap.ProfiledSet, error) {
	var cacheKey string
	if r.Cache != nil {
		cacheKey = r.Cache.Key(w.App, w.Ranks, w.Chunks, w.Size, w.Iters)
		ps, err := r.Cache.Load(cacheKey)
		if err != nil {
			return nil, err
		}
		if ps != nil {
			atomic.AddInt64(&r.work.TraceCacheHits, 1)
			return ps, nil
		}
	}
	app, err := apps.New(w.App, apps.Config{Ranks: w.Ranks, Size: w.Size, Iterations: w.Iters})
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&r.work.Traces, 1)
	ps, err := tracer.Trace(app, tracer.Options{Chunks: w.Chunks})
	if err == nil && r.Cache != nil {
		if err := r.Cache.Store(cacheKey, ps); err != nil {
			r.noteStoreErr(err)
		}
	}
	return ps, err
}

// Profiled returns the workload's profiled set, tracing on first use (see
// profile).
func (r *Runner) Profiled(w Workload) (*overlap.ProfiledSet, error) {
	p, err := r.traced(w)
	if err != nil {
		return nil, err
	}
	return p.ps, nil
}

// OriginalProgram returns the workload's original trace compiled for
// replay: the one Program every replay of that trace runs.
func (r *Runner) OriginalProgram(w Workload) (*replay.Program, error) {
	p, err := r.traced(w)
	if err != nil {
		return nil, err
	}
	return p.orig, nil
}

// VariantProgram returns the workload's overlapped trace for the options,
// transformed and compiled on first use: the one Program every replay of
// that variant runs.
func (r *Runner) VariantProgram(w Workload, opts overlap.Options) (*replay.Program, error) {
	p, err := r.traced(w)
	if err != nil {
		return nil, err
	}
	return p.variants.Get(p.ps, opts)
}

// Original returns the replay summary of the workload's original trace on
// the platform, memoized like every grid point's replay.
func (r *Runner) Original(w Workload, m machine.Config) (replay.Summary, error) {
	prog, err := r.OriginalProgram(w)
	if err != nil {
		return replay.Summary{}, err
	}
	return r.replayMemo(w, prog, false, m)
}

// Overlapped returns the replay summary of the workload's overlapped
// trace for the options on the platform, memoized.
func (r *Runner) Overlapped(w Workload, opts overlap.Options, m machine.Config) (replay.Summary, error) {
	prog, err := r.VariantProgram(w, opts)
	if err != nil {
		return replay.Summary{}, err
	}
	return r.replayMemo(w, prog, true, m)
}

// noteStoreErr keeps the first cache-write failure for CacheStoreErr.
func (r *Runner) noteStoreErr(err error) {
	r.mu.Lock()
	if r.storeErr == nil {
		r.storeErr = err
	}
	r.mu.Unlock()
}

// CacheStoreErr returns the first cache-write failure of the run — trace
// cache or replay store — if any. Write failures do not fail the sweep
// (the results are still correct and complete); callers can surface them
// as a warning that the next run will recompute.
func (r *Runner) CacheStoreErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeErr
}

// memoKey identifies one replay semantically: the traced workload (with
// its rank count resolved from the trace), the trace variant, and the full
// platform. The variant name embeds pattern, mechanisms and the transform's
// chunk count for overlapped traces and is "original" for the
// untransformed one. An overlapped key also keeps the traced chunk count —
// a c4 transform of an 8-chunk profile is not the default transform of a
// 4-chunk one — while the original key drops it: the original trace is
// identical across the chunk axis, so chunk sweeps share one original
// replay.
type memoKey struct {
	w        Workload
	variant  string
	platform machine.Config
}

func memoKeyOf(w Workload, ts *trace.Set, overlapped bool, m machine.Config) memoKey {
	w = w.resolved()
	w.App, w.Ranks = ts.Name, ts.NRanks()
	if !overlapped {
		w.Chunks = 0
	}
	// The platform name is presentation (it is rewritten by WithBandwidth);
	// drop it so label differences cannot split otherwise equal platforms.
	m.Name = ""
	return memoKey{w: w, variant: ts.Variant, platform: m}
}

// storeKey is the memo key's persistent replay-store key.
func (r *Runner) storeKey(k memoKey) string {
	return r.Store.Key(k.w.App, k.w.Ranks, k.w.Size, k.w.Iters, k.variant, k.platform)
}

// memoEntry is a single-flight slot: the first requester simulates, later
// and concurrent requesters wait for (and share) the result.
type memoEntry struct {
	once sync.Once
	sum  replay.Summary
	err  error
	// prefilled marks an entry the batch path computed before any point
	// asked for it. The first lookup consumes the mark without counting a
	// memo hit: that lookup is the point's own replay, already counted as
	// a (batched) replay — so the hit accounting matches the unbatched run
	// exactly.
	prefilled bool
}

// replayMemo memoizes the program's replay summary per (workload, variant,
// platform).
// A sweep grid replays the same trace on the same platform once per other
// axis value — e.g. every mechanism point re-replays the original trace —
// and the memo collapses those duplicates. With a persistent Store
// configured the memo is additionally backed by disk: a fill first
// consults the store (a hit skips the simulation entirely — work some
// earlier process paid for) and a simulated result is written back for
// the next process. Store lookups happen only here, once per memo fill,
// so they stay off the per-event replay hot path.
func (r *Runner) replayMemo(w Workload, prog *replay.Program, overlapped bool, m machine.Config) (replay.Summary, error) {
	key := memoKeyOf(w, prog.Set(), overlapped, m)
	r.mu.Lock()
	if r.memos == nil {
		r.memos = map[memoKey]*memoEntry{}
	}
	e, hit := r.memos[key]
	if !hit {
		e = &memoEntry{}
		r.memos[key] = e
	}
	if hit && e.prefilled {
		e.prefilled = false
		hit = false
	}
	r.mu.Unlock()
	if hit {
		atomic.AddInt64(&r.work.ReplayMemoHits, 1)
	}
	e.once.Do(func() {
		var storeKey string
		if r.Store != nil {
			storeKey = r.storeKey(key)
			if sr := r.Store.Load(storeKey); sr != nil {
				atomic.AddInt64(&r.work.ReplayStoreHits, 1)
				e.sum = replay.Summary{Total: sr.Total, Steps: sr.Steps, Blocked: sr.Blocked}
				return
			}
		}
		atomic.AddInt64(&r.work.Replays, 1)
		e.sum, e.err = prog.Summary(m)
		if e.err != nil {
			return
		}
		if r.Store != nil {
			err := r.Store.Store(storeKey, replaystore.Result{
				Total: e.sum.Total, Steps: e.sum.Steps, Blocked: e.sum.Blocked,
			})
			if err != nil {
				r.noteStoreErr(err)
			}
		}
	})
	return e.sum, e.err
}

// machineFor applies the point's platform overrides to the base config: the
// bandwidth axis first (a negative value, BaseBandwidth, keeps the base
// platform's; zero means infinitely fast, following the machine model's
// convention), then the platform overlay. When the overlay re-places ranks
// (RanksPerNode), the node count is re-derived from the traced rank count,
// so an SMP axis packs the same ranks onto fewer nodes instead of failing
// the capacity check.
func (r *Runner) machineFor(p Point, nranks int) machine.Config {
	m := r.Base
	if m.Nodes == 0 {
		m = machine.Default()
	}
	if p.Bandwidth >= 0 {
		m = m.WithBandwidth(p.Bandwidth)
	}
	m = p.Platform.Apply(m)
	if p.Platform.RanksPerNodeSet {
		m = m.WithNodes(nranks)
	}
	return m
}

// RunPoint simulates one grid point: the original replay, the overlapped
// replay, and the derived speedup.
func (r *Runner) RunPoint(p Point) (Result, error) {
	w := r.workload(p)
	ps, err := r.Profiled(w)
	if err != nil {
		return Result{}, err
	}
	m := r.machineFor(p, ps.Original.NRanks())
	orig, err := r.Original(w, m)
	if err != nil {
		return Result{}, err
	}
	over, err := r.Overlapped(w, p.Options(), m)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Point:     p,
		Bandwidth: m.Bandwidth,
		TOriginal: orig.Total,
		TOverlap:  over.Total,
		Speedup:   1,
		Blocked:   orig.Blocked,
		Steps:     orig.Steps + over.Steps,
	}
	if over.Total > 0 {
		res.Speedup = float64(orig.Total) / float64(over.Total)
	}
	return res, nil
}

// Run expands the grid and simulates every point on the worker pool.
// Results come back in expansion order, bit-identical for any worker
// count; the first error (in point order) aborts the sweep.
func (r *Runner) Run(g Grid) ([]Result, error) {
	return r.RunContext(context.Background(), g)
}

// RunContext is Run with cancellation: cancelling the context stops the
// sweep promptly (claimed points finish, no new ones start) and returns
// ctx.Err(). No partial results are returned, so callers cannot mistake an
// interrupted sweep for a complete one.
func (r *Runner) RunContext(ctx context.Context, g Grid) ([]Result, error) {
	return r.RunStreamContext(ctx, g, nil)
}

// RunStreamContext is RunContext with incremental delivery: emit, when
// non-nil, receives each point's result (with its expanded-point index)
// the moment it completes — in completion order, unordered across indices.
// Emit calls are serialized; an emit error aborts the sweep (reported as a
// *SinkError), following the StreamContext contract. The returned slice is
// still in expansion order and byte-identical through the writers for any
// worker count, so streaming consumers get partial answers early without
// giving up the ordered final output. On cancellation, points that were
// already claimed finish and still reach emit before RunStreamContext
// returns ctx.Err().
func (r *Runner) RunStreamContext(ctx context.Context, g Grid, emit func(index int, res Result) error) ([]Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pts := g.Expand()
	approx := r.approxResults(pts, nil)
	r.prefillRemaining(pts, nil, approx)
	return StreamContext(ctx, r.Engine, len(pts), func(i int) (Result, error) {
		if res, ok := approx[i]; ok {
			return res, nil
		}
		return r.RunPoint(pts[i])
	}, emit)
}

// RunSink runs the grid and delivers every result to the sink, retaining
// nothing: the streaming execution path for campaign-scale grids whose
// result sets should not live in memory. It is RunSinkContext without
// cancellation.
func (r *Runner) RunSink(g Grid, sink Sink) error {
	return r.RunSinkContext(context.Background(), g, sink)
}

// RunSinkContext runs the grid, feeding each result to sink.Accept as it
// completes (serialized, completion order). The runner never closes the
// sink: on success the caller Closes to finalize the encoding, and on
// cancellation the caller chooses — an OrderedSink Closed after an
// interrupt keeps the flushed grid-order prefix, which is the partial-
// results contract of `overlapsim sweep -stream-ordered`.
func (r *Runner) RunSinkContext(ctx context.Context, g Grid, sink Sink) error {
	if err := g.Validate(); err != nil {
		return err
	}
	pts := g.Expand()
	approx := r.approxResults(pts, nil)
	r.prefillRemaining(pts, nil, approx)
	return EachContext(ctx, r.Engine, len(pts), func(i int) (Result, error) {
		if res, ok := approx[i]; ok {
			return res, nil
		}
		return r.RunPoint(pts[i])
	}, func(i int, res Result) error { return sink.Accept(i, res) })
}

// RunIndicesSinkContext is RunSinkContext over only the given expanded-
// point indices — the shard execution path. The sink sees expanded-grid
// indices (not positions), so shard and unsharded runs feed any sink
// identically.
func (r *Runner) RunIndicesSinkContext(ctx context.Context, g Grid, indices []int, sink Sink) error {
	pts, err := expandChecked(g, indices)
	if err != nil {
		return err
	}
	approx := r.approxResults(pts, indices)
	r.prefillRemaining(pts, indices, approx)
	return EachContext(ctx, r.Engine, len(indices), func(j int) (Result, error) {
		if res, ok := approx[indices[j]]; ok {
			return res, nil
		}
		return r.RunPoint(pts[indices[j]])
	}, func(j int, res Result) error { return sink.Accept(indices[j], res) })
}

// expandChecked validates the grid, expands it, and bounds-checks the
// requested indices against the expansion — the shared preamble of every
// indices-based entry point, kept in one place so the two execution paths
// cannot diverge in what they accept.
func expandChecked(g Grid, indices []int) ([]Point, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pts := g.Expand()
	for _, i := range indices {
		if i < 0 || i >= len(pts) {
			return nil, fmt.Errorf("sweep: point index %d out of range [0,%d)", i, len(pts))
		}
	}
	return pts, nil
}

// RunIndices simulates only the given expanded-point indices of the grid —
// the shard execution path. results[j] is the outcome of point indices[j];
// ordering and error reporting follow the indices slice the same way Run
// follows the full expansion.
func (r *Runner) RunIndices(g Grid, indices []int) ([]Result, error) {
	return r.RunIndicesContext(context.Background(), g, indices)
}

// RunIndicesContext is RunIndices with cancellation, following the
// RunContext contract.
func (r *Runner) RunIndicesContext(ctx context.Context, g Grid, indices []int) ([]Result, error) {
	return r.RunIndicesStreamContext(ctx, g, indices, nil)
}

// RunIndicesStreamContext is RunIndicesContext with incremental delivery,
// following the RunStreamContext contract. emit receives the expanded-point
// index (indices[j], not j), so shard and unsharded streams label points
// identically.
func (r *Runner) RunIndicesStreamContext(ctx context.Context, g Grid, indices []int, emit func(index int, res Result) error) ([]Result, error) {
	pts, err := expandChecked(g, indices)
	if err != nil {
		return nil, err
	}
	approx := r.approxResults(pts, indices)
	r.prefillRemaining(pts, indices, approx)
	var emitGrid func(j int, res Result) error
	if emit != nil {
		emitGrid = func(j int, res Result) error { return emit(indices[j], res) }
	}
	return StreamContext(ctx, r.Engine, len(indices), func(j int) (Result, error) {
		if res, ok := approx[indices[j]]; ok {
			return res, nil
		}
		return r.RunPoint(pts[indices[j]])
	}, emitGrid)
}

// Result is the outcome of one grid point.
type Result struct {
	Point Point
	// Bandwidth is the effective network bandwidth the point replayed on,
	// with the base platform's value resolved in (0 = infinite).
	Bandwidth units.Bandwidth
	// TOriginal and TOverlap are the simulated runtimes of the original
	// and the overlap-transformed executions.
	TOriginal units.Time
	TOverlap  units.Time
	// Speedup is TOriginal/TOverlap (1 when TOverlap is zero).
	Speedup float64
	// Blocked is the original execution's mean blocked-time fraction, the
	// measure that locates the intermediate-bandwidth regime.
	Blocked float64
	// Steps counts DES events executed across both replays.
	Steps int64
	// Approx marks a surrogate-predicted result (the -approx fast path):
	// its times were interpolated from anchor replays rather than
	// simulated, within the run's error bound. Exact-mode results and
	// anchor/spot-check replays leave it false.
	Approx bool
}
