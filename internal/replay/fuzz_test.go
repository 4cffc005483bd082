package replay

import (
	"bytes"
	"reflect"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
)

// fuzzReplayAdded are FuzzReplay's in-code seeds; TestContendedReplayGolden
// replays them too.
var fuzzReplayAdded = []string{
	"H 2 1000 \"a\" \"o\"\nT 0\nC 10\nS 1 0 64\nG barrier 0 0\nT 1\nC 20\nR 0 0 64\nG barrier 0 0\n",
	// Collective-free pairwise exchange across two node pairs.
	"H 4 1000 \"par\" \"o\"\nT 0\nC 100\nS 1 0 64\nR 1 1 64\nT 1\nC 120\nR 0 0 64\nS 0 1 64\nT 2\nC 90\nS 3 2 64\nR 3 3 64\nT 3\nC 80\nR 2 2 64\nS 2 3 64\n",
}

// FuzzReplay drives the simulator with arbitrary decoded-and-validated trace
// sets: Simulate must terminate without panicking and produce the same result
// twice. Sets that fail Validate are out of contract and skipped, as are
// very large ones (the fuzzer makes no progress exploring size, only shape).
func FuzzReplay(f *testing.F) {
	for _, s := range fuzzReplayAdded {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Compile adds no rule of its own: it fails exactly when the
		// validator does, with the validator's message.
		_, cerr := Compile(ts)
		verr := trace.Validate(ts)
		if (cerr == nil) != (verr == nil) || (verr != nil && cerr.Error() != verr.Error()) {
			t.Fatalf("Compile error %v, Validate error %v", cerr, verr)
		}
		if verr != nil {
			return
		}
		if ts.NRanks() > 32 {
			return
		}
		records := 0
		for i := range ts.Traces {
			records += len(ts.Traces[i].Records)
		}
		if records > 4096 {
			return
		}
		// Rendezvous everywhere: the strictest protocol, and the one where
		// mismatched orderings would deadlock if the engine mishandled them.
		cfg := machine.Default()
		cfg.EagerThreshold = 0
		res, err := Simulate(ts, cfg)
		if err != nil {
			return // diagnosed rejection (e.g. deadlock) is fine; a hang is not
		}
		res2, err2 := Simulate(ts, cfg)
		if err2 != nil {
			t.Fatalf("second Simulate failed after first succeeded: %v", err2)
		}
		if res.Total != res2.Total || res.Steps != res2.Steps {
			t.Fatalf("replay nondeterministic: total %v/%v steps %d/%d",
				res.Total, res2.Total, res.Steps, res2.Steps)
		}
		// The default platform, then the golden test's contended ones
		// (fewer buses, shared or doubled links), so transfers wait for
		// resources. A fresh replayer must agree with a pooled warm one,
		// and the batch path with one Simulate per config.
		cfgs := []machine.Config{machine.Default()}
		for _, p := range contendedPlatforms() {
			cfgs = append(cfgs, p.cfg)
		}
		out := make([]Summary, len(cfgs))
		n, berr := SimulateBatch(ts, cfgs, out, 0)
		for i, c := range cfgs {
			want, err := Simulate(ts, c)
			if i > 0 {
				fresh, ferr := simulateFresh(ts, c)
				if (err == nil) != (ferr == nil) {
					t.Fatalf("config %d: fresh/pooled disagree on failure: pooled=%v fresh=%v", i, err, ferr)
				}
				if err == nil && !reflect.DeepEqual(fresh, want) {
					t.Fatalf("config %d: fresh result diverges from pooled: total %v/%v steps %d/%d",
						i, fresh.Total, want.Total, fresh.Steps, want.Steps)
				}
			}
			if err != nil {
				if berr == nil || n != i {
					t.Fatalf("config %d: Simulate failed (%v) but batch completed %d points (err %v)", i, err, n, berr)
				}
				break
			}
			if i >= n {
				t.Fatalf("config %d: Simulate succeeded but batch stopped at %d: %v", i, n, berr)
			}
			if got := out[i]; got.Total != want.Total || got.Steps != want.Steps || got.Blocked != want.MeanBlockedFraction() {
				t.Fatalf("config %d: batch summary %+v diverges from Simulate total=%v steps=%d blocked=%v",
					i, got, want.Total, want.Steps, want.MeanBlockedFraction())
			}
		}
	})
}
