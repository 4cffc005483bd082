package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/tracer"
)

// serveMixed is the daemon's steady state: an in-process sweep server with
// the CLI's default admission (one sweep at a time, four queued) takes a
// closed loop of nproc clients running the seeded request script.
type serveMixed struct {
	env
	scr       *script
	cache     string
	srv       *serve.Server
	lb        *loopback
	served    []served
	block     int
	maxErr    float64 // worst predicted speedup error against exact replay
	overBound int     // predicted rows beyond the request's error bound
}

// served is one completed POST /sweeps.
type served struct {
	idx    int // script index
	code   int
	status string // trailer verdict
	job    string
	body   []byte
	lat    time.Duration
	first  time.Duration // until the first result row arrived
	err    error
}

func newServeMixed(e env) workload { return &serveMixed{env: e} }

// setup starts a fresh server over a fresh cache directory, pre-traces
// the paper apps into it, and sends the script's history, so the first
// timed block already has earlier bodies to repeat.
func (w *serveMixed) setup() error {
	w.close()
	var err error
	if w.scr, err = newScript(w.seed); err != nil {
		return err
	}
	w.cache = filepath.Join(w.dir, "serve-cache")
	cache := &sweep.TraceCache{Dir: w.cache}
	for _, app := range apps.PaperApps() {
		for _, chunks := range []int{4, 8} {
			a, err := apps.New(app, apps.Config{})
			if err != nil {
				return err
			}
			ps, err := tracer.Trace(a, tracer.Options{Chunks: chunks})
			if err != nil {
				return err
			}
			if err := cache.Store(cache.Key(app, 0, chunks, 0, 0), ps); err != nil {
				return err
			}
		}
	}
	w.srv = serve.New(serve.Config{
		Base:          machine.Default(),
		CacheDir:      w.cache,
		MaxConcurrent: 1,
		MaxQueued:     4,
		SweepWorkers:  w.nproc,
	})
	if w.lb, err = startLoopback(w.srv.Handler(), w.nproc); err != nil {
		return err
	}
	w.served, w.block = nil, 0
	for i := 0; i < w.scr.history(); i++ {
		s := w.post(i, w.scr.reqs[i].body)
		if s.err != nil {
			return s.err
		}
		w.served = append(w.served, s)
	}
	return nil
}

// post sends one request and reads its streamed body to the end.
func (w *serveMixed) post(idx int, body []byte) served {
	s := served{idx: idx}
	t0 := time.Now()
	resp, err := w.lb.client.Post(w.lb.base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.code = resp.StatusCode
	var buf bytes.Buffer
	chunk := make([]byte, 32<<10)
	lines := 0
	for {
		n, err := resp.Body.Read(chunk)
		buf.Write(chunk[:n])
		if s.first == 0 {
			// The CSV header is the first line; the first row ends the second.
			if lines += bytes.Count(chunk[:n], []byte("\n")); lines >= 2 {
				s.first = time.Since(t0)
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.err = err
			return s
		}
	}
	s.lat = time.Since(t0)
	s.body = buf.Bytes()
	s.status = resp.Trailer.Get("X-Overlapsim-Status")
	s.job = resp.Header.Get("X-Overlapsim-Job")
	if s.code != http.StatusOK || s.status != "ok" {
		s.err = fmt.Errorf("request %d: HTTP %d, status %q: %s", idx, s.code, s.status, bytes.TrimSpace(s.body))
	}
	return s
}

// runBlock sends block b's requests from nproc closed-loop clients and
// returns them in completion order; rec, when non-nil, records a span per
// request.
func (w *serveMixed) runBlock(b int, rec *recorder, parent int) ([]served, time.Duration, error) {
	reqs, err := w.scr.block(b)
	if err != nil {
		return nil, 0, err
	}
	lo := w.scr.history() + b*blockSize()
	next := make(chan int, len(reqs)) // holds the whole block up front
	for i := range reqs {
		next <- lo + i
	}
	close(next)
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				var s served
				body := w.scr.reqs[idx].body
				if rec != nil {
					_ = rec.do("serve.request", parent, fmt.Sprint(idx), func() error { s = w.post(idx, body); return nil })
				} else {
					s = w.post(idx, body)
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start), nil
}

func (w *serveMixed) run(deadline time.Time) (*timing, error) {
	tm := &timing{}
	for len(tm.passes) == 0 || time.Now().Before(deadline) {
		out, wall, err := w.runBlock(w.block, nil, -1)
		if err != nil {
			return nil, err
		}
		w.block++
		p := pass{wall: wall}
		for _, s := range out {
			tm.attempted++
			if s.err != nil {
				tm.failed++
				continue
			}
			p.ops = append(p.ops, s.lat)
		}
		tm.add(p)
		w.served = append(w.served, out...)
	}
	return tm, nil
}

// jobWork fetches a finished job's work counters.
func (w *serveMixed) jobWork(job string) (*serve.WorkJSON, error) {
	var st serve.JobStatus
	if err := w.getJSON("/sweeps/"+job, &st); err != nil {
		return nil, err
	}
	if st.Work == nil {
		return nil, fmt.Errorf("job %s (%s) reports no work", job, st.State)
	}
	return st.Work, nil
}

func (w *serveMixed) getJSON(path string, v any) error {
	resp, err := w.lb.client.Get(w.lb.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check verifies every served body against a fresh Runner's encoding of
// its grid and every approx grid's rows against exact replay (see
// expected), and that every repeat did no traces and no replays. The
// expected bodies are computed on nproc goroutines.
func (w *serveMixed) check(tm *timing) error {
	base := machine.Default()
	exact := sweep.NewRunner(base)
	exact.Engine.Workers = w.nproc
	exact.Cache = &sweep.TraceCache{Dir: w.cache}
	approx := sweep.NewRunner(base)
	approx.Engine.Workers = w.nproc
	approx.Cache = exact.Cache
	approx.Approx = true

	want := map[string][]byte{}
	wantErr := map[string]error{}
	var keys []string
	for _, s := range w.served {
		if k := string(w.scr.reqs[s.idx].body); s.err == nil && want[k] == nil {
			want[k] = []byte{}
			keys = append(keys, k)
		}
	}
	byBody := map[string]request{}
	for _, r := range w.scr.reqs {
		byBody[string(r.body)] = r
	}
	var mu sync.Mutex
	next := make(chan string, len(keys)) // holds every key up front
	for _, k := range keys {
		next <- k
	}
	close(next)
	var wg sync.WaitGroup
	for i := 0; i < w.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				req := byBody[k]
				body, worst, over, err := expected(req, exact, approx)
				mu.Lock()
				want[k], wantErr[k] = body, err
				w.maxErr = math.Max(w.maxErr, worst)
				w.overBound += over
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	var first error
	fail := func(i int, err error) {
		if i >= w.scr.history() {
			tm.failed++
		}
		if first == nil {
			first = err
		}
	}
	for _, s := range w.served {
		if s.err != nil {
			continue // counted when it was served
		}
		req := w.scr.reqs[s.idx]
		if err := wantErr[string(req.body)]; err != nil {
			fail(s.idx, err)
			continue
		}
		if !bytes.Equal(want[string(req.body)], s.body) {
			fail(s.idx, fmt.Errorf("serve-mixed: request %d body (%d bytes) differs from sweep.Write of its grid (%d bytes)", s.idx, len(s.body), len(want[string(req.body)])))
			continue
		}
		if req.kind == kindRepeat {
			wk, err := w.jobWork(s.job)
			if err != nil {
				fail(s.idx, err)
			} else if wk.Traces != 0 || wk.Replays != 0 {
				fail(s.idx, fmt.Errorf("serve-mixed: repeat request %d did %d traces and %d replays, want 0 and 0", s.idx, wk.Traces, wk.Replays))
			}
		}
	}
	return first
}

// expected encodes the request's grid as the server must: exact grids
// through sweep.Write, approx grids through the approx writer. An approx
// grid is also run exactly: every replayed row must equal exact replay,
// and every predicted row must be within the request's bound on
// TOriginal and TOverlap. It returns the worst relative error of a
// predicted speedup and the number of predicted rows beyond the bound,
// which is an error when not 0.
func expected(req request, exact, approx *sweep.Runner) (body []byte, worst float64, over int, err error) {
	var buf bytes.Buffer
	if !req.approx {
		ex, err := exact.Run(req.grid)
		if err != nil {
			return nil, 0, 0, err
		}
		err = sweep.Write(&buf, sweep.FormatCSV, ex)
		return buf.Bytes(), 0, 0, err
	}
	ap, err := approx.Run(req.grid)
	if err != nil {
		return nil, 0, 0, err
	}
	ex, err := exact.Run(req.grid)
	if err != nil {
		return nil, 0, 0, err
	}
	for i := range ex {
		if !ap[i].Approx {
			if e := ex[i]; ap[i].TOriginal != e.TOriginal || ap[i].TOverlap != e.TOverlap || ap[i].Steps != e.Steps {
				return nil, 0, 0, fmt.Errorf("serve-mixed: replayed approx row %d of %s differs from exact replay", i, ap[i].Point)
			}
			continue
		}
		worst = math.Max(worst, relErr(ap[i].Speedup, ex[i].Speedup))
		if relErr(float64(ap[i].TOriginal), float64(ex[i].TOriginal)) > sweep.DefaultApproxMaxErr ||
			relErr(float64(ap[i].TOverlap), float64(ex[i].TOverlap)) > sweep.DefaultApproxMaxErr {
			over++
		}
	}
	if over > 0 {
		return nil, worst, over, fmt.Errorf("serve-mixed: %d predicted rows of %s are beyond the request's error bound %g (worst speedup error %.4f)",
			over, req.body, sweep.DefaultApproxMaxErr, worst)
	}
	err = sweep.WriteMode(&buf, sweep.FormatCSV, ap, true)
	return buf.Bytes(), worst, over, err
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// trace sends one more block with a span per request, then re-runs each of
// its grids as explicit layer calls against the server's cache and store
// (read only): trace-cache decode, transform, validate, store reads,
// replay of any miss, encode. Approx grids go through a fresh approx
// Runner instead, timed as the surrogate layer.
func (w *serveMixed) trace(rec *recorder) (layerMetrics, error) {
	lm := layerMetrics{}
	var before serve.StatsJSON
	if err := w.getJSON("/stats", &before); err != nil {
		return nil, err
	}
	root := rec.begin("bench.pass", -1, "")
	cpu0 := cpuTime()
	out, wall, err := w.runBlock(w.block, rec, root)
	cpu := cpuTime() - cpu0
	rec.end(root)
	if err != nil {
		return nil, err
	}
	w.block++
	var after serve.StatsJSON
	if err := w.getJSON("/stats", &after); err != nil {
		return nil, err
	}
	var firsts []time.Duration
	points := 0
	for _, s := range out {
		if s.err != nil {
			return nil, s.err
		}
		firsts = append(firsts, s.first)
		points += w.scr.reqs[s.idx].grid.Size()
	}
	lm["serve.jobs"] = float64(after.Jobs.Completed - before.Jobs.Completed)
	lm["serve.rejected"] = float64(after.Jobs.Rejected - before.Jobs.Rejected)
	lm["sweep.points"] = float64(points)
	lm["sweep.replays"] = float64(after.Work.Replays - before.Work.Replays)
	lm["sweep.memo_hits"] = float64(after.Work.ReplayMemoHits - before.Work.ReplayMemoHits)
	lm["sweep.batched_replays"] = float64(after.Work.BatchedReplays - before.Work.BatchedReplays)
	lm["sweep.first_result_ms"] = ms(median(firsts))
	lm["sweep.cpu_per_wall"] = cpu.Seconds() / wall.Seconds()

	cache := &sweep.TraceCache{Dir: w.cache}
	store := &replaystore.Store{Dir: w.cache}
	l := newLayers(rec, cache, store, false)
	var approxPoints, predicted, spot, demoted float64
	var overheads []time.Duration
	layersRoot := rec.begin("bench.layers", -1, "")
	for _, s := range out {
		req := w.scr.reqs[s.idx]
		id := fmt.Sprint(s.idx)
		parent := rec.begin("bench.request", layersRoot, id)
		if req.approx {
			r := sweep.NewRunner(machine.Default())
			r.Engine.Workers = w.nproc
			r.Cache, r.Store, r.Approx = cache, store, true
			err = rec.do("surrogate", parent, id, func() error { _, err := r.Run(req.grid); return err })
			c := r.Stats()
			approxPoints += float64(req.grid.Size())
			predicted += float64(c.PredictedPoints)
			spot += float64(c.SpotCheckReplays)
			demoted += float64(c.DemotedFamilies)
		} else {
			_, _, err = l.runGrid(req.grid, parent, id)
		}
		rec.end(parent)
		if err != nil {
			rec.end(layersRoot)
			return nil, err
		}
		overheads = append(overheads, s.lat-(rec.spans[parent].End-rec.spans[parent].Start))
	}
	rec.end(layersRoot)
	l.into(lm)
	lm["surrogate.predicted"] = predicted
	lm["surrogate.spot_checks"] = spot
	lm["surrogate.demoted"] = demoted
	if approxPoints > 0 {
		lm["surrogate.replay_fraction"] = (approxPoints - predicted) / approxPoints
	}
	lm["surrogate.max_rel_err"] = w.maxErr
	lm["surrogate.rows_over_bound"] = float64(w.overBound)
	lm["serve.overhead_ms"] = ms(median(overheads))
	peak, err := l.maxPending()
	if err != nil {
		return nil, err
	}
	lm["replay.max_pending"] = float64(peak)
	return lm, nil
}

func (w *serveMixed) close() {
	if w.lb != nil {
		w.srv.CancelAll()
		w.lb.stop()
		w.lb = nil
	}
	if w.cache != "" {
		os.RemoveAll(w.cache)
	}
}
