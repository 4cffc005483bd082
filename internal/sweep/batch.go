package sweep

import (
	"sync/atomic"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep/replaystore"
)

// This file implements batched warm-Replayer execution for platform-axis
// grids. A sweep along platform axes replays the same trace set once per
// platform, each replay on whichever pooled replayer its worker draws. The
// prefill pass below detects groups of points that share a workload and
// trace variant but differ in platform, and pushes all their missing
// replays through one warm replayer (replay.Program.Batch) before the
// workers start. Points then find their memo entries prefilled; everything
// else about the run — results, caching semantics, counter totals — is
// unchanged.

// batchKey groups expanded points that replay the same trace sets: same
// workload and same overlap transformation. Within a group only the
// platform (bandwidth + overlay) varies.
type batchKey struct {
	w    Workload
	opts overlap.Options
}

// prefillBatches routes platform-axis replay work through the batch path.
// It is best-effort by design: any error (tracing, transformation, a batch
// point) simply leaves the affected memo entries unfilled, and the normal
// per-point path rediscovers and reports the error with full context.
func (r *Runner) prefillBatches(pts []Point) {
	if r.DisableBatch {
		return
	}
	groups := map[batchKey][]Point{}
	var order []batchKey // deterministic group order (first appearance)
	for _, p := range pts {
		k := batchKey{w: r.workload(p), opts: p.Options()}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	for _, k := range order {
		group := groups[k]
		if len(group) < 2 {
			continue // a single point gains nothing from batching
		}
		r.prefillGroup(k, group)
	}
}

// prefillIndices is prefillBatches over only the expanded points a shard
// will run.
func (r *Runner) prefillIndices(pts []Point, indices []int) {
	if r.DisableBatch {
		return
	}
	sel := make([]Point, len(indices))
	for j, i := range indices {
		sel[j] = pts[i]
	}
	r.prefillBatches(sel)
}

// prefillGroup batches one workload-variant group: trace (or load) the
// workload once, build its two programs, and batch-replay every platform
// in the group that neither the memo nor the persistent store has yet.
func (r *Runner) prefillGroup(k batchKey, group []Point) {
	orig, err := r.OriginalProgram(k.w)
	if err != nil {
		return
	}
	nranks := orig.Set().NRanks()
	// Distinct platforms in first-appearance order: duplicates collapse to
	// one batch point exactly as they collapse to one memo fill.
	var machines []machine.Config
	seen := map[machine.Config]bool{}
	for _, p := range group {
		m := r.machineFor(p, nranks)
		key := m
		key.Name = ""
		if !seen[key] {
			seen[key] = true
			machines = append(machines, m)
		}
	}
	if len(machines) < 2 {
		return
	}
	over, err := r.VariantProgram(k.w, k.opts)
	if err != nil {
		return
	}
	r.prefillSet(k.w, orig, false, machines)
	r.prefillSet(k.w, over, true, machines)
}

// prefillSet batch-replays the program on every machine whose memo entry
// is missing (and not already in the persistent store), then installs the
// summaries as prefilled memo entries and writes them through to the store.
func (r *Runner) prefillSet(w Workload, prog *replay.Program, overlapped bool, machines []machine.Config) {
	ts := prog.Set()
	var missing []machine.Config
	for _, m := range machines {
		key := memoKeyOf(w, ts, overlapped, m)
		r.mu.Lock()
		_, have := r.memos[key]
		r.mu.Unlock()
		if have {
			continue
		}
		if r.Store != nil && r.Store.Load(r.storeKey(key)) != nil {
			continue // the fill path will take the store hit as usual
		}
		missing = append(missing, m)
	}
	if len(missing) < 2 {
		return // leave a lone fill to the normal path
	}
	out := make([]replay.Summary, len(missing))
	n, _ := prog.Batch(missing, out)
	// On error the completed prefix is still valid; the failing point's
	// entry stays unfilled so RunPoint reports the error in context.
	for i := 0; i < n; i++ {
		sum := out[i]
		atomic.AddInt64(&r.work.Replays, 1)
		atomic.AddInt64(&r.work.BatchedReplays, 1)
		key := memoKeyOf(w, ts, overlapped, missing[i])
		e := &memoEntry{sum: sum, prefilled: true}
		e.once.Do(func() {})
		r.mu.Lock()
		if r.memos == nil {
			r.memos = map[memoKey]*memoEntry{}
		}
		if _, have := r.memos[key]; !have {
			r.memos[key] = e
		}
		r.mu.Unlock()
		if r.Store != nil {
			err := r.Store.Store(r.storeKey(key), replaystore.Result{Total: sum.Total, Steps: sum.Steps, Blocked: sum.Blocked})
			if err != nil {
				r.noteStoreErr(err)
			}
		}
	}
}
