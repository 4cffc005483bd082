package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"overlapsim/internal/machine"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
)

// sweepCold is the CLI's cold path: a fresh Runner with an empty trace
// cache and replay store writes the 420-point grid as CSV through a
// batch sink.
type sweepCold struct {
	env
	grid  sweep.Grid
	pairs int64  // distinct (set, platform) pairs of the grid
	ref   []byte // the layer driver's CSV of the grid
	csv   []byte // the first timed pass's CSV
	fails []string
	pass  int
}

func newSweepCold(e env) workload { return &sweepCold{env: e} }

// setup generates the grid and computes the reference output with the
// untraced layer driver: the CSV every timed pass must reproduce, and the
// number of distinct (set, platform) pairs, which is what every cold pass
// must replay.
func (w *sweepCold) setup() error {
	w.grid = coldGrid(w.seed)
	if err := w.grid.Validate(); err != nil {
		return err
	}
	l := newLayers(nil, nil, nil, false)
	_, ref, err := l.runGrid(w.grid, -1, "")
	w.ref, w.pairs = ref, int64(l.counts["replay.replays"])
	return err
}

// rowSink records when each row is accepted.
type rowSink struct {
	mu    sync.Mutex
	start time.Time
	at    []time.Duration
}

func (s *rowSink) Accept(int, sweep.Result) error {
	s.mu.Lock()
	s.at = append(s.at, time.Since(s.start))
	s.mu.Unlock()
	return nil
}

func (s *rowSink) Close() error { return nil }

// coldPass runs the grid once on a fresh Runner over the empty cache
// directory dir and returns the CSV, the row times and the work counters.
func (w *sweepCold) coldPass(dir string, rec *recorder, parent int) ([]byte, *rowSink, sweep.Counters, time.Duration, error) {
	r := sweep.NewRunner(machine.Default())
	r.Engine.Workers = w.nproc
	r.Cache = &sweep.TraceCache{Dir: dir}
	r.Store = &replaystore.Store{Dir: dir}
	var buf bytes.Buffer
	rows := &rowSink{}
	batch := sweep.NewBatchSink(&buf, sweep.FormatCSV)
	sink := sweep.NewTeeSink(batch, rows)
	rows.start = time.Now()
	var err error
	if rec != nil {
		id := rec.begin("sweep.run", parent, "")
		err = r.RunSinkContext(context.Background(), w.grid, sink)
		rec.end(id)
		if err == nil {
			err = rec.do("sink.encode", parent, "", sink.Close)
		}
	} else {
		err = r.RunSinkContext(context.Background(), w.grid, sink)
		if err == nil {
			err = sink.Close()
		}
	}
	wall := time.Since(rows.start)
	if err == nil {
		err = r.CacheStoreErr()
	}
	return buf.Bytes(), rows, r.Stats(), wall, err
}

// assert checks a cold pass's work counters.
func (w *sweepCold) assert(c sweep.Counters) error {
	if c.Replays != w.pairs || c.ReplayStoreHits != 0 || c.TraceCacheHits != 0 {
		return fmt.Errorf("sweep-cold: %d replays, %d store hits, %d trace-cache hits; want %d, 0, 0",
			c.Replays, c.ReplayStoreHits, c.TraceCacheHits, w.pairs)
	}
	return nil
}

func (w *sweepCold) run(deadline time.Time) (*timing, error) {
	tm := &timing{}
	w.csv, w.fails = nil, nil
	for len(tm.passes) == 0 || time.Now().Before(deadline) {
		w.pass++
		dir := filepath.Join(w.dir, fmt.Sprintf("cold-%d", w.pass))
		out, rows, c, wall, err := w.coldPass(dir, nil, -1)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		tm.add(pass{wall: wall, ops: rows.at})
		tm.attempted += len(rows.at)
		if w.csv == nil {
			w.csv = out
		}
		bad := w.assert(c)
		if bad == nil && !bytes.Equal(out, w.csv) {
			bad = fmt.Errorf("sweep-cold: pass %d CSV differs from pass 0", len(tm.passes)-1)
		}
		if bad != nil {
			tm.failed += len(rows.at)
			w.fails = append(w.fails, bad.Error())
		}
	}
	return tm, nil
}

// check compares the Runner's CSV with the layer driver's, byte for byte.
func (w *sweepCold) check(tm *timing) error {
	if len(w.fails) > 0 {
		return fmt.Errorf("%s", w.fails[0])
	}
	if !bytes.Equal(w.ref, w.csv) {
		return fmt.Errorf("sweep-cold: Runner CSV (%d bytes) differs from the layer driver's (%d bytes)", len(w.csv), len(w.ref))
	}
	return nil
}

// trace makes one traced cold pass; then runs the grid as a campaign
// against the cache that pass filled (the campaign layer's numbers: it
// must assemble the same CSV with no traces and no replays); then re-runs
// the grid as explicit layer calls over a fresh trace cache and replay
// store, writing both.
func (w *sweepCold) trace(rec *recorder) (layerMetrics, error) {
	lm := layerMetrics{}
	cache := filepath.Join(w.dir, "traced")
	defer os.RemoveAll(cache)
	root := rec.begin("bench.pass", -1, "")
	cpu0 := cpuTime()
	out, rows, c, wall, err := w.coldPass(cache, rec, root)
	cpu := cpuTime() - cpu0
	rec.end(root)
	if err != nil {
		return nil, err
	}
	if err := w.assert(c); err != nil {
		return nil, err
	}
	if !bytes.Equal(out, w.csv) {
		return nil, fmt.Errorf("sweep-cold: traced pass CSV differs from the timed passes'")
	}
	lm["sweep.points"] = float64(len(rows.at))
	lm["sweep.replays"] = float64(c.Replays)
	lm["sweep.memo_hits"] = float64(c.ReplayMemoHits)
	lm["sweep.batched_replays"] = float64(c.BatchedReplays)
	lm["sweep.first_result_ms"] = ms(rows.at[0])
	lm["sweep.cpu_per_wall"] = cpu.Seconds() / wall.Seconds()

	journal := filepath.Join(w.dir, "campaign")
	defer os.RemoveAll(journal)
	root = rec.begin("bench.campaign", -1, "")
	cr, err := warmCampaign(w.grid, cache, journal, w.nproc, rec, root)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(cr.csv, w.csv) {
		return nil, fmt.Errorf("sweep-cold: campaign assembled a CSV (%d bytes) different from the cold sweep's (%d bytes)", len(cr.csv), len(w.csv))
	}
	if cr.work.Traces != 0 || cr.work.Replays != 0 {
		return nil, fmt.Errorf("sweep-cold: warm campaign did %d traces and %d replays, want 0 and 0", cr.work.Traces, cr.work.Replays)
	}
	campaignMetrics(lm, cr, len(w.grid.Apps)*len(w.grid.Chunks))

	dir := filepath.Join(w.dir, "layers")
	defer os.RemoveAll(dir)
	l := newLayers(rec, &sweep.TraceCache{Dir: dir}, &replaystore.Store{Dir: dir}, true)
	root = rec.begin("bench.layers", -1, "")
	_, lout, err := l.runGrid(w.grid, root, "")
	rec.end(root)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(lout, w.csv) {
		return nil, fmt.Errorf("sweep-cold: traced layer-driver CSV differs from the Runner's")
	}
	l.into(lm)
	peak, err := l.maxPending()
	if err != nil {
		return nil, err
	}
	lm["replay.max_pending"] = float64(peak)
	return lm, nil
}

func (w *sweepCold) close() {}
