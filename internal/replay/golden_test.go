package replay

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/contended-golden.txt from the current replay")

// goldenPath holds one SHA-256 per contended replay case. The digests are
// the oracle for the network arbitration: any change to which transfer
// gets a bus or link, and when, changes some case's digest.
const goldenPath = "testdata/contended-golden.txt"

// contendedPlatforms are the platforms the golden cases replay on: the
// default platform narrowed to 1, 2 and 4 buses, two ranks per node behind
// single links, and two links per node with unlimited buses.
func contendedPlatforms() []struct {
	name string
	cfg  machine.Config
} {
	mk := func(f func(*machine.Config)) machine.Config {
		c := machine.Default()
		f(&c)
		return c
	}
	return []struct {
		name string
		cfg  machine.Config
	}{
		{"bus1", mk(func(c *machine.Config) { c.Buses = 1 })},
		{"bus2", mk(func(c *machine.Config) { c.Buses = 2 })},
		{"bus4", mk(func(c *machine.Config) { c.Buses = 4 })},
		{"rpn2-links1", mk(func(c *machine.Config) { c.RanksPerNode, c.InLinks, c.OutLinks = 2, 1, 1 })},
		{"links2-nobus", mk(func(c *machine.Config) { c.InLinks, c.OutLinks, c.Buses = 2, 2, 0 })},
	}
}

// goldenGenSpecs are synthetic 64-rank workloads whose irregular
// communication mixes link-blocked and bus-blocked transfers in one queue.
var goldenGenSpecs = []string{
	"gen:randomsparse,ranks=64,iters=3,msg=16384,seed=3",
	"gen:alltoall,ranks=16,iters=2,msg=8192,seed=5",
}

// goldenSets returns the trace sets the golden cases replay, keyed by case
// prefix: every paper application at its default scale and the synthetic
// goldenGenSpecs, each original and with both overlap patterns, plus every
// FuzzReplay seed.
func goldenSets(t *testing.T) map[string]*trace.Set {
	t.Helper()
	sets := map[string]*trace.Set{}
	for _, name := range append(apps.PaperApps(), goldenGenSpecs...) {
		app, err := apps.New(name, apps.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := tracer.Trace(app, tracer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sets[name+"/original"] = ps.Original
		for _, pat := range []overlap.Pattern{overlap.PatternReal, overlap.PatternLinear} {
			over, err := overlap.Transform(ps, overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: pat})
			if err != nil {
				t.Fatal(err)
			}
			sets[fmt.Sprintf("%s/overlap-%s", name, pat)] = over
		}
	}
	for name, data := range fuzzReplaySeeds(t) {
		ts, err := trace.Read(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("fuzz seed %s: %v", name, err)
		}
		sets["fuzz/"+name] = ts
	}
	return sets
}

// fuzzReplaySeeds returns FuzzReplay's seed inputs: the f.Add seeds and
// the committed corpus files.
func fuzzReplaySeeds(t testing.TB) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	for i, s := range fuzzReplayAdded {
		seeds[fmt.Sprintf("added-%d", i)] = []byte(s)
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzReplay/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Corpus format: a "go test fuzz v1" header, then one []byte("...")
		// line holding a Go-quoted string.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: unexpected corpus format", path)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seeds[filepath.Base(path)] = []byte(s)
	}
	return seeds
}

// hashResult digests everything Simulate reports: the totals, every
// NetworkStats field, and every timeline interval and event. A failed
// replay digests its error text.
func hashResult(h hash.Hash, res *Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
		return
	}
	n := res.Network
	fmt.Fprintf(h, "total %d steps %d\n", int64(res.Total), res.Steps)
	fmt.Fprintf(h, "net transfers %d local %d bytes %d bustime %d colls %d maxpending %d\n",
		n.Transfers, n.LocalTransfers, int64(n.Bytes), int64(n.BusTime), n.Collectives, n.MaxPending)
	tl := res.Timelines
	fmt.Fprintf(h, "set %q %q %d\n", tl.Name, tl.Variant, int64(tl.Total))
	for _, l := range tl.Lines {
		fmt.Fprintf(h, "line %d finish %d\n", l.Rank, int64(l.Finish))
		for _, iv := range l.Intervals {
			fmt.Fprintf(h, "iv %d %d %d\n", int64(iv.Start), int64(iv.End), int(iv.State))
		}
		for _, ev := range l.Events {
			fmt.Fprintf(h, "ev %d %q\n", int64(ev.At), ev.Label)
		}
	}
}

// TestContendedReplayGolden replays every golden trace set on every
// contended platform and compares the digest of the full result against
// the committed one. Run with -update to regenerate the file after an
// intended model change.
func TestContendedReplayGolden(t *testing.T) {
	sets := goldenSets(t)
	got := map[string]string{}
	for prefix, ts := range sets {
		for _, p := range contendedPlatforms() {
			h := sha256.New()
			res, err := simulateFresh(ts, p.cfg)
			hashResult(h, res, err)
			got[prefix+"@"+p.name] = hex.EncodeToString(h.Sum(nil))
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateGolden {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no committed digest (regenerate with -update once the change is known to be intended)", k)
		} else if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: committed digest has no case", k)
		}
	}
}
