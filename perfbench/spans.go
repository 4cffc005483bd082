package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one served request
// share req; parent is the index of the enclosing span, or -1.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    string        `json:"req,omitempty"`
}

// recorder keeps spans in memory; write dumps them when the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent int, req string) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(name string, parent int, req string, fn func() error) error {
	id := r.begin(name, parent, req)
	defer r.end(id)
	return fn()
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// busy sums the durations of every span with the name.
func (r *recorder) busy(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTime is a span's duration minus the part of it its children cover.
func (r *recorder) selfTime(id int, children [][]int) time.Duration {
	s := r.spans[id]
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children[id] {
		ivs = append(ivs, iv{max(r.spans[c].Start, s.Start), min(r.spans[c].End, s.End)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := time.Duration(0), s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.End - s.Start - covered
}

// coverage is the layer self time summed over every non-bench span,
// divided by the wall time of the root spans.
func (r *recorder) coverage() float64 {
	children := make([][]int, len(r.spans))
	var wall, layer time.Duration
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			wall += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		if !strings.HasPrefix(s.Name, "bench.") {
			layer += r.selfTime(i, children)
		}
	}
	if wall <= 0 {
		return 0
	}
	return float64(layer) / float64(wall)
}

// layerMetrics holds the per-layer metrics of a traced run; any name of
// perLayer not set reads 0 (the layer is not exercised by the workload).
type layerMetrics map[string]float64

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"experiment.f1_ms", "ms"}, {"experiment.e1_ms", "ms"}, {"experiment.e2_ms", "ms"},
	{"experiment.e2f_ms", "ms"}, {"experiment.e3_ms", "ms"}, {"experiment.a1_ms", "ms"},
	{"experiment.a2_ms", "ms"}, {"experiment.a3_ms", "ms"}, {"experiment.b1_ms", "ms"},
	{"experiment.s1_ms", "ms"}, {"experiment.trace_ms", "ms"},
	{"tracer.runs", "count"}, {"tracer.busy_ms", "ms"},
	{"overlap.transforms", "count"}, {"overlap.busy_ms", "ms"},
	{"trace.validate_ms", "ms"}, {"trace.validate_share", "ratio"},
	{"replay.replays", "count"}, {"replay.events", "count"}, {"replay.busy_ms", "ms"},
	{"replay.ns_per_event", "ns"}, {"replay.max_pending", "count"},
	{"sweep.points", "count"}, {"sweep.replays", "count"}, {"sweep.memo_hits", "count"},
	{"sweep.batched_replays", "count"}, {"sweep.first_result_ms", "ms"}, {"sweep.cpu_per_wall", "ratio"},
	{"surrogate.predicted", "count"}, {"surrogate.spot_checks", "count"}, {"surrogate.demoted", "count"},
	{"surrogate.replay_fraction", "ratio"}, {"surrogate.max_rel_err", "ratio"},
	{"surrogate.rows_over_bound", "count"},
	{"store.hits", "count"}, {"store.hit_ratio", "ratio"}, {"store.load_ms", "ms"}, {"store.write_ms", "ms"},
	{"tracecache.hits", "count"}, {"tracecache.load_ms", "ms"}, {"tracecache.store_ms", "ms"},
	{"sink.encode_ms", "ms"}, {"sink.bytes", "B"},
	{"serve.overhead_ms", "ms"}, {"serve.jobs", "count"}, {"serve.rejected", "count"},
	{"campaign.chunks", "count"}, {"campaign.leases", "count"}, {"campaign.expired", "count"},
	{"campaign.duplicates", "count"}, {"campaign.lease_ms", "ms"}, {"campaign.complete_ms", "ms"},
	{"campaign.assemble_ms", "ms"}, {"campaign.trace_loads_per_workload", "count"},
	{"bench.span_coverage", "ratio"}, {"bench.tracing_overhead_s", "s"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finish adds the metrics every traced run derives from its spans: layer
// busy times, span coverage, and the traced pass's wall time over the
// untraced median pass of the same run.
func (lm layerMetrics) finish(r *recorder, untraced time.Duration) {
	for _, n := range []string{"f1", "e1", "e2", "e2f", "e3", "a1", "a2", "a3", "b1", "s1", "trace"} {
		lm["experiment."+n+"_ms"] = ms(r.busy("experiment." + n))
	}
	lm["tracer.busy_ms"] = ms(r.busy("tracer"))
	lm["overlap.busy_ms"] = ms(r.busy("overlap"))
	lm["trace.validate_ms"] = ms(r.busy("trace.validate"))
	replay := r.busy("replay")
	lm["replay.busy_ms"] = ms(replay)
	if replay > 0 {
		lm["trace.validate_share"] = float64(r.busy("trace.validate")) / float64(replay)
	}
	if ev := lm["replay.events"]; ev > 0 {
		lm["replay.ns_per_event"] = float64(replay) / ev
	}
	lm["store.load_ms"] = ms(r.busy("store.load"))
	lm["store.write_ms"] = ms(r.busy("store.write"))
	lm["tracecache.load_ms"] = ms(r.busy("tracecache.load"))
	lm["tracecache.store_ms"] = ms(r.busy("tracecache.store"))
	lm["sink.encode_ms"] = ms(r.busy("sink.encode"))
	lm["campaign.lease_ms"] = ms(r.busy("campaign.lease"))
	lm["campaign.complete_ms"] = ms(r.busy("campaign.complete"))
	lm["campaign.assemble_ms"] = ms(r.busy("campaign.assemble"))
	lm["bench.span_coverage"] = r.coverage()
	lm["bench.tracing_overhead_s"] = (r.busy("bench.pass") - untraced).Seconds()
}

func (lm layerMetrics) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{lm[m.name], m.unit}
	}
	return out
}
