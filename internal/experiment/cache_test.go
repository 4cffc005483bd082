package experiment

import (
	"bytes"
	"os"
	"testing"

	"overlapsim/internal/sweep"
	"overlapsim/internal/trace"
)

// TestSuiteTraceCache checks the harness-side cache wiring: a second suite
// sharing the cache directory reconstructs the same pipeline from disk and
// produces identical simulation results.
func TestSuiteTraceCache(t *testing.T) {
	dir := t.TempDir()

	cold := NewSuite()
	cold.Quick = true
	cold.Cache = &sweep.TraceCache{Dir: dir}
	pl1, err := cold.PipelineFor("pingpong")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache dir after cold run: %v (%d entries, want trace+profile)", err, len(entries))
	}

	warm := NewSuite()
	warm.Quick = true
	warm.Cache = &sweep.TraceCache{Dir: dir}
	pl2, err := warm.PipelineFor("pingpong")
	if err != nil {
		t.Fatal(err)
	}

	if got := warm.Stats(); got.Traces != 0 || got.TraceCacheHits != 1 {
		t.Errorf("warm suite did %+v, want 0 instrumented runs and 1 trace-cache hit", got)
	}

	ps1, err := pl1.Profiled()
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := pl2.Profiled()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.Write(&a, ps1.Original); err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(&b, ps2.Original); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cached pipeline's original trace differs from the traced one")
	}

	s1, err := pl1.Speedup(cold.Machine, bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pl2.Speedup(warm.Machine, bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("speedup from cached pipeline %v != traced %v", s2, s1)
	}
}
