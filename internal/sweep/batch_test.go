package sweep

import (
	"reflect"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/units"
)

// batchGrid is a platform-axis-only grid: one workload, one variant, three
// platforms, with no bus limit.
func batchGrid() Grid {
	return Grid{
		Apps:      []string{"ring"},
		Ranks:     []int{16},
		Buses:     []int{0},
		Latencies: []units.Duration{5 * units.Microsecond, 20 * units.Microsecond, 50 * units.Microsecond},
	}
}

// TestBatchPrefillMatchesUnbatched pins the tentpole's caching contract:
// routing a platform axis through the batched warm replayer changes no
// result and no counter except the BatchedReplays subset itself.
func TestBatchPrefillMatchesUnbatched(t *testing.T) {
	for _, buses := range []int{0, 1} { // 1: transfers queue for the bus
		g := batchGrid()
		g.Buses = []int{buses}
		plain := NewRunner(machine.Default())
		plain.DisableBatch = true
		want, err := plain.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		batched := NewRunner(machine.Default())
		got, err := batched.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("buses=%d: batched sweep diverges from unbatched:\ngot:  %+v\nwant: %+v", buses, got, want)
		}
		ps, bs := plain.Stats(), batched.Stats()
		if bs.BatchedReplays == 0 {
			t.Fatalf("buses=%d: platform-axis grid did not engage the batch path", buses)
		}
		if ps.BatchedReplays != 0 {
			t.Fatalf("buses=%d: DisableBatch runner reported %d batched replays", buses, ps.BatchedReplays)
		}
		bs.BatchedReplays = 0
		if bs != ps {
			t.Fatalf("buses=%d: batching changed the work accounting:\nbatched:   %+v\nunbatched: %+v", buses, bs, ps)
		}
	}
}

// TestBatchPrefillWarmRerun: a second identical sweep on the same runner
// must be answered entirely from the memo — prefill included, no replay
// and no batch work happens twice.
func TestBatchPrefillWarmRerun(t *testing.T) {
	g := batchGrid()
	r := NewRunner(machine.Default())
	first, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	second, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm rerun diverges")
	}
	d := r.Stats().Sub(before)
	if d.Replays != 0 || d.BatchedReplays != 0 || d.Traces != 0 {
		t.Fatalf("warm rerun did work: %+v", d)
	}
	if d.ReplayMemoHits == 0 {
		t.Fatalf("warm rerun took no memo hits: %+v", d)
	}
}

// TestBatchPrefillShardPath: the shard entry points prefill only their own
// points, and sharded results still agree with the unsharded run.
func TestBatchPrefillShardPath(t *testing.T) {
	g := batchGrid()
	want, err := func() ([]Result, error) {
		r := NewRunner(machine.Default())
		r.DisableBatch = true
		return r.Run(g)
	}()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(machine.Default())
	got, err := r.RunIndices(g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want[0]) || !reflect.DeepEqual(got[1], want[2]) {
		t.Fatal("sharded batched results diverge from unsharded")
	}
	if r.Stats().BatchedReplays == 0 {
		t.Fatal("shard run with two platform points did not batch")
	}
}
