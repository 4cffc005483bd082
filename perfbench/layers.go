package main

import (
	"bytes"
	"fmt"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
)

// layers re-runs a grid as explicit calls into each layer — trace (or
// trace-cache load), transform, validate, store lookup, batched replay,
// store write, encode — timing each call as a span named after its layer.
// Its results must reproduce the sweep.Runner's bit for bit, which is what
// makes its per-layer times a decomposition of the Runner's work.
type layers struct {
	rec    *recorder // nil: run untraced
	base   machine.Config
	cache  *sweep.TraceCache  // nil: always trace
	store  *replaystore.Store // nil: always replay
	write  bool               // store fresh traces and replays
	counts layerMetrics       // counters accumulated over every grid
	loads  int                // store lookups, for store.hit_ratio
	pairs  []pair             // every replayed pair, for maxPending
}

// pairKey identifies one replay the way the Runner's memo does: the
// workload, the trace variant and the platform without its display name.
type pairKey struct {
	app      string
	ranks    int
	variant  string
	platform machine.Config
}

type pair struct {
	ts  *trace.Set
	m   machine.Config
	sum replay.Summary
}

type workloadKey struct {
	app    string
	ranks  int
	chunks int
}

func newLayers(rec *recorder, cache *sweep.TraceCache, store *replaystore.Store, write bool) *layers {
	return &layers{rec: rec, base: machine.Default(), cache: cache, store: store, write: write, counts: layerMetrics{}}
}

// span times fn as a span under parent; untraced drivers just call fn.
func (l *layers) span(name string, parent int, req string, fn func() error) error {
	if l.rec == nil {
		return fn()
	}
	return l.rec.do(name, parent, req, fn)
}

// machineFor mirrors sweep.Runner's platform derivation for a point.
func (l *layers) machineFor(p sweep.Point, nranks int) machine.Config {
	m := l.base
	if p.Bandwidth >= 0 {
		m = m.WithBandwidth(p.Bandwidth)
	}
	m = p.Platform.Apply(m)
	if p.Platform.RanksPerNodeSet {
		m = m.WithNodes(nranks)
	}
	return m
}

// profiled loads a workload from the trace cache, or traces it.
func (l *layers) profiled(k workloadKey, parent int, req string) (*overlap.ProfiledSet, error) {
	var ps *overlap.ProfiledSet
	var key string
	if l.cache != nil {
		key = l.cache.Key(k.app, k.ranks, k.chunks, 0, 0)
		err := l.span("tracecache.load", parent, req, func() error {
			var err error
			ps, err = l.cache.Load(key)
			return err
		})
		if err != nil {
			return nil, err
		}
		if ps != nil {
			l.counts["tracecache.hits"]++
			return ps, nil
		}
	}
	err := l.span("tracer", parent, req, func() error {
		a, err := apps.New(k.app, apps.Config{Ranks: k.ranks})
		if err != nil {
			return err
		}
		ps, err = tracer.Trace(a, tracer.Options{Chunks: k.chunks})
		return err
	})
	if err != nil {
		return nil, err
	}
	l.counts["tracer.runs"]++
	if l.cache != nil && l.write {
		if err := l.span("tracecache.store", parent, req, func() error { return l.cache.Store(key, ps) }); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// runGrid runs every point of g through the layers and returns the
// results and their CSV encoding.
func (l *layers) runGrid(g sweep.Grid, parent int, req string) ([]sweep.Result, []byte, error) {
	pts := g.Expand()
	sets := map[workloadKey]*overlap.ProfiledSet{}
	variants := map[workloadKey]map[string]*trace.Set{}
	pairs := map[pairKey]*pair{}
	var order []pairKey
	type pointPairs struct{ orig, over pairKey }
	pp := make([]pointPairs, len(pts))
	validated := map[*trace.Set]bool{}

	use := func(ts *trace.Set, m machine.Config) (pairKey, error) {
		k := pairKey{app: ts.Name, ranks: ts.NRanks(), variant: ts.Variant, platform: m}
		k.platform.Name = ""
		if _, ok := pairs[k]; ok {
			return k, nil
		}
		if !validated[ts] {
			validated[ts] = true
			if err := l.span("trace.validate", parent, req, func() error { return trace.Validate(ts) }); err != nil {
				return k, err
			}
		}
		pairs[k] = &pair{ts: ts, m: m}
		order = append(order, k)
		return k, nil
	}

	for i := range pts {
		p := &pts[i]
		if p.Chunks == 0 {
			p.Chunks = sweep.DefaultChunks
		}
		wk := workloadKey{p.App, p.Ranks, p.Chunks}
		ps, ok := sets[wk]
		if !ok {
			var err error
			if ps, err = l.profiled(wk, parent, req); err != nil {
				return nil, nil, err
			}
			sets[wk] = ps
			variants[wk] = map[string]*trace.Set{}
		}
		opts := p.Options()
		name := opts.Variant(ps.Chunks)
		ts, ok := variants[wk][name]
		if !ok {
			err := l.span("overlap", parent, req, func() error {
				var err error
				ts, err = overlap.Transform(ps, opts)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			l.counts["overlap.transforms"]++
			variants[wk][name] = ts
		}
		m := l.machineFor(*p, ps.Original.NRanks())
		var err error
		if pp[i].orig, err = use(ps.Original, m); err != nil {
			return nil, nil, err
		}
		if pp[i].over, err = use(ts, m); err != nil {
			return nil, nil, err
		}
	}

	// Store lookups, then one batched replay per trace set for the misses.
	var missOrder []*trace.Set
	misses := map[*trace.Set][]pairKey{}
	for _, k := range order {
		pr := pairs[k]
		if l.store != nil {
			var sr *replaystore.Result
			_ = l.span("store.load", parent, req, func() error {
				sr = l.store.Load(l.store.Key(k.app, k.ranks, 0, 0, k.variant, k.platform))
				return nil
			})
			if sr != nil {
				l.counts["store.hits"]++
				pr.sum = replay.Summary{Total: sr.Total, Steps: sr.Steps, Blocked: sr.Blocked}
				continue
			}
		}
		if _, ok := misses[pr.ts]; !ok {
			missOrder = append(missOrder, pr.ts)
		}
		misses[pr.ts] = append(misses[pr.ts], k)
	}
	if l.store != nil {
		l.loads += len(order)
	}
	for _, ts := range missOrder {
		keys := misses[ts]
		cfgs := make([]machine.Config, len(keys))
		for i, k := range keys {
			cfgs[i] = pairs[k].m
		}
		out := make([]replay.Summary, len(keys))
		err := l.span("replay", parent, req, func() error {
			_, err := replay.SimulateBatch(ts, cfgs, out, 0)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		for i, k := range keys {
			pairs[k].sum = out[i]
			l.counts["replay.replays"]++
			l.counts["replay.events"] += float64(out[i].Steps)
			l.pairs = append(l.pairs, *pairs[k])
		}
		if l.store != nil && l.write {
			for i, k := range keys {
				err := l.span("store.write", parent, req, func() error {
					return l.store.Store(l.store.Key(k.app, k.ranks, 0, 0, k.variant, k.platform),
						replaystore.Result{Total: out[i].Total, Steps: out[i].Steps, Blocked: out[i].Blocked})
				})
				if err != nil {
					return nil, nil, err
				}
			}
		}
	}

	results := make([]sweep.Result, len(pts))
	for i, p := range pts {
		o, v := pairs[pp[i].orig], pairs[pp[i].over]
		res := sweep.Result{
			Point:     p,
			Bandwidth: o.m.Bandwidth,
			TOriginal: o.sum.Total,
			TOverlap:  v.sum.Total,
			Speedup:   1,
			Blocked:   o.sum.Blocked,
			Steps:     o.sum.Steps + v.sum.Steps,
		}
		if v.sum.Total > 0 {
			res.Speedup = float64(o.sum.Total) / float64(v.sum.Total)
		}
		results[i] = res
	}
	var buf bytes.Buffer
	if err := l.span("sink.encode", parent, req, func() error { return sweep.Write(&buf, sweep.FormatCSV, results) }); err != nil {
		return nil, nil, err
	}
	l.counts["sink.bytes"] += float64(buf.Len())
	return results, buf.Bytes(), nil
}

// maxPending replays every pair the driver replayed once more through
// the full Simulate, which reports the peak transfer queue, and returns
// the largest peak. It runs after the traced pass, outside every span.
func (l *layers) maxPending() (int, error) {
	peak := 0
	for _, pr := range l.pairs {
		res, err := replay.Simulate(pr.ts, pr.m)
		if err != nil {
			return 0, err
		}
		if res.Total != pr.sum.Total {
			return 0, fmt.Errorf("replay of %s/%s: Simulate total %d, batch total %d", pr.ts.Name, pr.ts.Variant, res.Total, pr.sum.Total)
		}
		peak = max(peak, res.Network.MaxPending)
	}
	return peak, nil
}

// into copies the driver's counters and ratios into lm.
func (l *layers) into(lm layerMetrics) {
	for k, v := range l.counts {
		lm[k] += v
	}
	if l.loads > 0 {
		lm["store.hit_ratio"] = l.counts["store.hits"] / float64(l.loads)
	}
}
