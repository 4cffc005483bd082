package sweep

import (
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// TestReplayMemoKeySeparatesWorkloads serves, from one runner, workloads
// whose replays agree on app, rank count, variant name and platform but
// not on the traced run: problem size, iterations, or the chunk count the
// profile was traced at. Every memoized answer must equal a direct replay
// of that workload's own trace set, so dropping any of the three from the
// memo key fails the test.
func TestReplayMemoKeySeparatesWorkloads(t *testing.T) {
	r := NewRunner(machine.Default())
	m := machine.Default().WithBandwidth(256 * units.MBPerSec)
	direct := func(ts *trace.Set) replay.Summary {
		t.Helper()
		res, err := replay.Simulate(ts, m)
		if err != nil {
			t.Fatal(err)
		}
		return replay.Summary{Total: res.Total, Steps: res.Steps, Blocked: res.MeanBlockedFraction()}
	}
	seen := map[units.Time]Workload{}
	distinct := func(w Workload, want replay.Summary) {
		t.Helper()
		if prev, ok := seen[want.Total]; ok {
			t.Fatalf("%+v and %+v replay to the same total %v: the check cannot tell them apart", prev, w, want.Total)
		}
		seen[want.Total] = w
	}

	// Original traces: sweep3d r16 at two iteration counts and two sizes.
	for _, w := range []Workload{
		{App: "sweep3d", Ranks: 16, Size: 1024, Iters: 2},
		{App: "sweep3d", Ranks: 16, Size: 1024, Iters: 1},
		{App: "sweep3d", Ranks: 16, Size: 512, Iters: 1},
	} {
		ps, err := r.Profiled(w)
		if err != nil {
			t.Fatal(err)
		}
		want := direct(ps.Original)
		distinct(w, want)
		got, err := r.Original(w, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%+v original: memoized %+v, direct %+v", w, got, want)
		}
	}

	// Overlapped traces named alike: the default real-pattern transform of
	// an 8-chunk profile and a c8 transform of a 4-chunk one. (A c4
	// transform of an 8-chunk profile merges chunk pairs into exactly the
	// 4-chunk profile, so that pair replays alike and cannot show a
	// collision; upsampling a coarser profile does differ.)
	real := overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal}
	c8 := real
	c8.Chunks = 8
	var names []string
	for _, q := range []struct {
		w    Workload
		opts overlap.Options
	}{
		{Workload{App: "sweep3d", Ranks: 4, Size: 256, Iters: 1, Chunks: 8}, real},
		{Workload{App: "sweep3d", Ranks: 4, Size: 256, Iters: 1, Chunks: 4}, c8},
	} {
		prog, err := r.VariantProgram(q.w, q.opts)
		if err != nil {
			t.Fatal(err)
		}
		ts := prog.Set()
		names = append(names, ts.Variant)
		want := direct(ts)
		distinct(q.w, want)
		got, err := r.Overlapped(q.w, q.opts, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%+v %s: memoized %+v, direct %+v", q.w, ts.Variant, got, want)
		}
	}
	if names[0] != names[1] {
		t.Fatalf("variant names %q and %q differ: the check needs them equal", names[0], names[1])
	}
	if st := r.Stats(); st.Traces != 5 || st.Replays != 5 || st.ReplayMemoHits != 0 {
		t.Errorf("runner did %+v, want 5 traces, 5 replays and no memo hits", st)
	}
}

// TestRunnerReplaysOneProgramPerSet checks that the Runner compiles each
// trace set once and runs every replay of it — batch prefill, memo fills
// from grid points and direct point queries — on that one Program: the
// runs counted by the workload's programs add up to every replay the
// runner made.
func TestRunnerReplaysOneProgramPerSet(t *testing.T) {
	g := batchGrid()
	g.Patterns = []overlap.Pattern{overlap.PatternLinear, overlap.PatternReal}
	r := NewRunner(machine.Default())
	if _, err := r.Run(g); err != nil {
		t.Fatal(err)
	}
	pts := g.Expand()
	w := r.workload(pts[0])
	m := r.machineFor(pts[0], 16).WithBandwidth(64 * units.MBPerSec) // not on the grid
	if _, err := r.Original(w, m); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Overlapped(w, pts[0].Options(), m); err != nil {
		t.Fatal(err)
	}

	orig, err := r.OriginalProgram(w)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := r.OriginalProgram(w); again != orig {
		t.Fatal("OriginalProgram compiled the original trace twice")
	}
	runs := orig.Runs()
	for _, pat := range g.Patterns {
		opts := overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: pat}
		prog, err := r.VariantProgram(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := r.VariantProgram(w, opts); again != prog {
			t.Fatalf("%s: VariantProgram compiled the variant twice", pat)
		}
		if prog.Runs() < 2 {
			t.Fatalf("%s: variant program ran %d times, want every platform", pat, prog.Runs())
		}
		runs += prog.Runs()
	}
	st := r.Stats()
	if st.BatchedReplays == 0 || st.Replays == st.BatchedReplays {
		t.Fatalf("work %+v: want both batched and per-point replays", st)
	}
	if runs != st.Replays {
		t.Fatalf("the workload's programs ran %d replays, the runner made %d", runs, st.Replays)
	}
}
