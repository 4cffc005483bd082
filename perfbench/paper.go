package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"overlapsim"
	"overlapsim/internal/apps"
	"overlapsim/internal/experiment"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

// paperDigest is the SHA-256 of `overlapsim run all` on the default
// platform: every paper experiment's tables, byte for byte.
const paperDigest = "72411a7f5f9409e8e97931910c179a30495e609ece37c1c49564e916662c0239"

// paper regenerates the paper: every experiment on a fresh suite, with
// tracing inside the timed pass because every regeneration pays it. Its
// inputs are fixed by the paper, so the seed is ignored.
type paper struct {
	env
	digests []string // one per timed pass
}

func newPaper(e env) workload { return &paper{env: e} }

// setup warms the process with e1, which traces every paper app and
// replays each at its intermediate bandwidth, so the first timed pass does
// not pay first-use costs the later ones skip.
func (w *paper) setup() error {
	return overlapsim.RunExperiment("e1", w.suite(), io.Discard)
}

func (w *paper) suite() *overlapsim.Suite {
	s := overlapsim.NewSuite()
	s.Workers = w.nproc
	return s
}

// pass runs `run all` once into a digest and returns it with the pass's
// wall time; spans are recorded when rec is non-nil.
func (w *paper) pass(rec *recorder, parent int) (string, time.Duration, error) {
	h := sha256.New()
	s := w.suite()
	start := time.Now()
	if rec != nil {
		// Trace the apps up front, so the experiment spans time replay
		// work only and experiment.trace times the instrumented runs.
		err := rec.do("experiment.trace", parent, "", func() error {
			for _, app := range append([]string{"pingpong"}, apps.PaperApps()...) {
				if _, err := s.PipelineFor(app); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return "", 0, err
		}
	}
	// The experiments in `overlapsim run all` order, with its headers.
	for _, d := range experiment.All {
		id := d.ID
		fmt.Fprintf(h, "==== %s: %s ====\n", id, d.Title)
		var err error
		if rec != nil {
			err = rec.do("experiment."+id, parent, "", func() error { return overlapsim.RunExperiment(id, s, h) })
		} else {
			err = overlapsim.RunExperiment(id, s, h)
		}
		if err != nil {
			return "", 0, fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil)), time.Since(start), nil
}

func (w *paper) run(deadline time.Time) (*timing, error) {
	tm := &timing{}
	w.digests = w.digests[:0]
	for len(tm.passes) == 0 || time.Now().Before(deadline) {
		// The op is the whole regeneration: the experiments' own times
		// differ a hundredfold, so percentiles over them would fall
		// between experiments and jump from run to run.
		d, wall, err := w.pass(nil, -1)
		if err != nil {
			return nil, err
		}
		tm.add(pass{wall: wall, ops: []time.Duration{wall}})
		tm.attempted++
		if d != paperDigest {
			tm.failed++
		}
		w.digests = append(w.digests, d)
	}
	return tm, nil
}

func (w *paper) check(*timing) error {
	for i, d := range w.digests {
		if d != paperDigest {
			return fmt.Errorf("paper: pass %d output digest %s, want %s", i, d, paperDigest)
		}
	}
	return nil
}

// trace makes one traced `run all` pass, then re-runs the replay work of
// the paper's headline sweeps — every paper app's original and both-
// mechanism traces over the experiments' bandwidth grid — as explicit
// layer calls.
func (w *paper) trace(rec *recorder) (layerMetrics, error) {
	lm := layerMetrics{}
	root := rec.begin("bench.pass", -1, "")
	d, _, err := w.pass(rec, root)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	if d != paperDigest {
		return nil, fmt.Errorf("paper: traced pass digest %s, want %s", d, paperDigest)
	}
	var bws []units.Bandwidth
	for bw := units.Bandwidth(units.MBPerSec); bw <= 64*units.GBPerSec; bw *= 2 {
		bws = append(bws, bw)
	}
	g := sweep.Grid{
		Apps:       append([]string{"pingpong"}, apps.PaperApps()...),
		Bandwidths: bws,
		Patterns:   []overlap.Pattern{overlap.PatternLinear, overlap.PatternReal},
	}
	l := newLayers(rec, nil, nil, false)
	root = rec.begin("bench.layers", -1, "")
	_, _, err = l.runGrid(g, root, "")
	rec.end(root)
	if err != nil {
		return nil, err
	}
	l.into(lm)
	peak, err := l.maxPending()
	if err != nil {
		return nil, err
	}
	lm["replay.max_pending"] = float64(peak)
	return lm, nil
}

func (w *paper) close() {}
