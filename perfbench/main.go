// Command perfbench is the repository benchmark. It drives overlapsim end
// to end through its Go APIs on seeded workloads (paper regeneration, a
// cold sweep, mixed sweep-service traffic), checks every output and work
// counter, and prints one JSON result line. With -trace 1 it instead
// reports per-layer numbers from a traced run, which for sweep-cold
// includes a warm campaign over the same grid. See README.md for the
// workloads, the metrics and what each should move.
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run repeats its workload's set-up; setup_s
// is their mean.
const setupRuns = 3

// refSeconds is the reference kernel's time on the 2-vCPU host this was
// written on. setup_s is the mean set-up time in reference-kernel units
// scaled by it: seconds on that host, at its usual speed.
const refSeconds = 0.160

// workload is one benchmark workload. setup builds its state from scratch
// (dropping any earlier state), run measures until the deadline, check
// verifies the outputs run produced (counting mismatched ops as failed in
// tm), and trace makes one traced pass and returns the per-layer metrics
// it measured.
type workload interface {
	setup() error
	run(deadline time.Time) (*timing, error)
	check(tm *timing) error
	trace(rec *recorder) (layerMetrics, error)
	close()
}

// timing is what a timed phase measured, pass by pass. A pass is one unit
// of the workload's work (a `run all`, a cold sweep, a block of served
// requests); an op is the smallest result a user waits for (a paper
// regeneration, a sweep row, a served body). refs holds the reference
// kernel's time after each pass.
type timing struct {
	passes    []pass
	refs      []time.Duration
	attempted int
	failed    int
}

type pass struct {
	wall time.Duration
	ops  []time.Duration // latency of each op
}

// add records a pass and runs the reference kernel after it.
func (tm *timing) add(p pass) {
	tm.passes = append(tm.passes, p)
	tm.refs = append(tm.refs, refKernel())
}

// medianWall is the median raw pass wall time.
func (tm *timing) medianWall() time.Duration {
	var walls []time.Duration
	for _, p := range tm.passes {
		walls = append(walls, p.wall)
	}
	return median(walls)
}

// env is what every workload is built from: the generated-input seed,
// the pool width and a private work directory inside the checkout.
type env struct {
	seed  uint64
	nproc int
	dir   string
}

var workloads = map[string]func(env) workload{
	"paper":       newPaper,
	"sweep-cold":  newSweepCold,
	"serve-mixed": newServeMixed,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper, sweep-cold or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	err := run(*name, mk, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		if !errors.Is(err, errIncorrect) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func run(name string, mk func(env) workload, seed uint64, seconds time.Duration, traced bool) error {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := mk(env{seed: seed, nproc: runtime.NumCPU(), dir: dir})
	defer w.close()

	setupRefs := []time.Duration{refKernel()}
	var setups []time.Duration
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		setupRefs = append(setupRefs, refKernel())
	}

	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	tm, err := w.run(time.Now().Add(seconds))
	if err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading the peak RSS: %w", err)
	}
	setupRef, ref := mean(setupRefs), mean(tm.refs)
	var problems []string
	if err := w.check(tm); err != nil {
		problems = append(problems, err.Error())
	}
	if tm.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed", tm.failed, tm.attempted))
	}

	out := output{Attempted: tm.attempted, Failed: tm.failed}
	if traced {
		rec := newRecorder()
		lm, err := w.trace(rec)
		if err != nil {
			problems = append(problems, "traced run: "+err.Error())
		} else {
			lm.finish(rec, tm.medianWall())
			out.Metrics = lm.metrics()
			if err := rec.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
				problems = append(problems, "writing spans: "+err.Error())
			}
		}
	} else {
		out.Metrics = endToEnd(tm, float64(mean(setups))/float64(setupRef), ref, rss)
	}
	out.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	printHuman(name, tm, mean(setups), ref, out)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errIncorrect
	}
	return nil
}

// errIncorrect reports a run whose result line says correct=false.
var errIncorrect = errors.New("incorrect result")

// endToEnd turns a timed phase into the end-to-end metrics. Times are in
// units of the reference kernel ("ref"): pass times are divided by ref,
// the mean of the kernel's times after every pass, and setup is already
// the mean set-up time over the mean of the kernel's times before and
// after every set-up. The host this was written on ran the same work up
// to twice as slow for minutes at a time, and the kernel slowed with it,
// so the ratio holds between runs where seconds do not. One mean per
// phase, rather than one kernel time per pass, keeps the kernel's own
// noise out of the ratio. setup_s is scaled back to seconds (see
// refSeconds); memory is reported raw. The median op latency is printed
// but is not a metric: on serve-mixed it falls between the repeat and the
// fresh requests, and its spread over ten seeds exceeded every bound the
// contract allows.
func endToEnd(tm *timing, setup float64, ref time.Duration, rssMB float64) map[string]metric {
	r := float64(ref)
	var total float64
	var ops []float64
	for _, p := range tm.passes {
		total += float64(p.wall) / r
		for _, o := range p.ops {
			ops = append(ops, float64(o)/r)
		}
	}
	return map[string]metric{
		"setup_s":     {refSeconds * setup, "s"},
		"wall_ref":    {total / float64(len(tm.passes)), "ref"},
		"op_tail_ref": {tail(ops), "ref"},
		"ops_per_ref": {float64(len(ops)) / total, "1/ref"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}

// printHuman writes the metrics as one name/value/unit line each, then the
// raw times the normalized metrics come from and the failure fraction,
// which the JSON line does not carry, to stdout ahead of the JSON result.
func printHuman(name string, tm *timing, setup, ref time.Duration, out output) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var ops []time.Duration
	for _, p := range tm.passes {
		ops = append(ops, p.ops...)
	}
	fmt.Printf("workload %s: %d passes, %d ops, tail = mean of the slowest %d\n", name, len(tm.passes), len(ops), tailCount(len(ops)))
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("  op p50 %.4g ref; raw: setup %.4f s, wall p50 %.4f s, op p50 %.3f ms, op tail %.3f ms, reference kernel %.3f ms\n",
		float64(median(ops))/float64(ref), setup.Seconds(), tm.medianWall().Seconds(), ms(median(ops)), ms(tail(ops)), ms(ref))
	frac := 0.0
	if tm.attempted > 0 {
		frac = float64(tm.failed) / float64(tm.attempted)
	}
	fmt.Printf("  %-36s %14.6g (%d failed of %d attempted)\n", "fail_frac", frac, tm.failed, tm.attempted)
}
