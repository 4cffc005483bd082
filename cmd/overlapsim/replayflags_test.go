package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"overlapsim/internal/cliflag"
)

// platformAxisArgs is a platform-axis-only sweep on a contention-free
// base: one workload on three latencies, the shape the batch path
// engages on.
var platformAxisArgs = []string{
	"-apps", "ring", "-ranks", "16",
	"-latencies", "5us,20us,50us", "-buscounts", "0",
	"-links", "0", "-buses", "0",
	"-size", "512", "-iters", "2",
}

// TestRunSweepReplayFlagsByteIdentical pins the output contract at the
// CLI: batching is a pure performance knob — every output format is
// byte-identical with it on and off.
func TestRunSweepReplayFlagsByteIdentical(t *testing.T) {
	for _, format := range []string{"table", "csv", "json"} {
		var ref bytes.Buffer
		refArgs := append([]string{"-format", format, "-replay-batch=false"}, platformAxisArgs...)
		if err := runSweep(refArgs, &ref); err != nil {
			t.Fatal(err)
		}
		if ref.Len() == 0 {
			t.Fatalf("%s: empty reference output", format)
		}
		var got bytes.Buffer
		if err := runSweep(append([]string{"-format", format}, platformAxisArgs...), &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Errorf("%s: batched output differs from the unbatched reference", format)
		}
	}
}

// TestRunSweepWorkLineCounters: the sweep: work: line reports the batched
// replays, and they move when batching is on.
func TestRunSweepWorkLineCounters(t *testing.T) {
	stderr := captureStderr(t, func() {
		var out bytes.Buffer
		if err := runSweep(append([]string{"-format", "csv"}, platformAxisArgs...), &out); err != nil {
			t.Error(err)
		}
	})
	line := workLine(t, stderr, "sweep: work:")
	if strings.Contains(line, " 0 batched replays") || !strings.Contains(line, "batched replays") {
		t.Errorf("platform-axis sweep reported no batched replays: %q", line)
	}
	if !strings.HasSuffix(line, " batched replays") {
		t.Errorf("exact sweep's work line must end at the batched replays: %q", line)
	}

	stderr = captureStderr(t, func() {
		var out bytes.Buffer
		if err := runSweep(append([]string{"-format", "csv", "-replay-batch=false"}, platformAxisArgs...), &out); err != nil {
			t.Error(err)
		}
	})
	line = workLine(t, stderr, "sweep: work:")
	if !strings.HasSuffix(line, " 0 batched replays") {
		t.Errorf("unbatched sweep should report zero batched replays: %q", line)
	}
}

// workLine extracts the work-accounting line with the given prefix from
// captured stderr.
func workLine(t *testing.T, stderr, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in stderr:\n%s", prefix, stderr)
	return ""
}

// captureStderr runs f with os.Stderr redirected to a pipe and returns
// what was written.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() {
		os.Stderr = old
	}()
	f()
	w.Close()
	os.Stderr = old
	return <-done
}

// TestRunSweepProfiles: -cpuprofile and -memprofile write pprof files on
// exit.
func TestRunSweepProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	args := append([]string{"-format", "csv", "-cpuprofile", cpu, "-memprofile", mem}, platformAxisArgs...)
	if err := runSweep(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestSpawnArgsForwardReplayFlags: campaign forwards the replay knob to
// spawned workers exactly when it is non-default.
func TestSpawnArgsForwardReplayFlags(t *testing.T) {
	off := &cliflag.Approx{}
	rp := &cliflag.Replay{Batch: false}
	args := spawnArgs(0, "http://x", "", 1, rp, off, 0, "crash", 1)
	if !slices.Contains(args, "-replay-batch=false") {
		t.Errorf("spawn args missing -replay-batch=false: %v", args)
	}
	rp = &cliflag.Replay{Batch: true}
	args = spawnArgs(0, "http://x", "", 1, rp, off, 0, "crash", 1)
	for _, a := range args {
		if strings.HasPrefix(a, "-replay") {
			t.Errorf("default replay knobs must not be forwarded: %v", args)
		}
	}
}

// TestSpawnArgsForwardApproxFlags: campaign forwards the surrogate knobs
// to spawned workers exactly when -approx is on, so each worker applies
// the same fast path to its chunks.
func TestSpawnArgsForwardApproxFlags(t *testing.T) {
	rp := &cliflag.Replay{Batch: true}
	ap := &cliflag.Approx{Enabled: true, MaxErr: 0.01, SpotCheck: 0.5}
	args := spawnArgs(0, "http://x", "", 1, rp, ap, 0, "crash", 1)
	if !slices.Contains(args, "-approx") {
		t.Errorf("spawn args missing -approx: %v", args)
	}
	if i := slices.Index(args, "-approx-maxerr"); i < 0 || args[i+1] != "0.01" {
		t.Errorf("spawn args missing -approx-maxerr 0.01: %v", args)
	}
	if i := slices.Index(args, "-approx-spotcheck"); i < 0 || args[i+1] != "0.5" {
		t.Errorf("spawn args missing -approx-spotcheck 0.5: %v", args)
	}
	args = spawnArgs(0, "http://x", "", 1, rp, &cliflag.Approx{}, 0, "crash", 1)
	for _, a := range args {
		if strings.HasPrefix(a, "-approx") {
			t.Errorf("approx knobs must not be forwarded with -approx off: %v", args)
		}
	}
}

// TestRunCampaignWorkLineCounters: a campaign run reports the batched
// replay work in its campaign: work: line, and its merged output still
// matches the plain unsharded sweep.
func TestRunCampaignWorkLineCounters(t *testing.T) {
	var want bytes.Buffer
	if err := runSweep(append([]string{"-format", "csv"}, platformAxisArgs...), &want); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stderr := captureStderr(t, func() {
		args := []string{
			"-dir", filepath.Join(t.TempDir(), "camp"),
			"-cache-dir", t.TempDir(),
			"-local-workers", "2", "-format", "csv", "--",
		}
		if err := runCampaign(append(args, platformAxisArgs...), &out); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Errorf("campaign diverges from plain sweep:\n%s\n---\n%s",
			out.String(), want.String())
	}
	line := workLine(t, stderr, "campaign: work:")
	if strings.Contains(line, " 0 batched replays") || !strings.Contains(line, "batched replays") {
		t.Errorf("campaign reported no batched replays: %q", line)
	}
	if !strings.HasSuffix(line, " batched replays") {
		t.Errorf("exact campaign's work line must end at the batched replays: %q", line)
	}
}
