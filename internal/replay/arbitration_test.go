package replay

import (
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// The arbitration tests hand-build traces on testConfig (1000-byte
// messages take 1us on the wire, 1us latency, all eager) and pin each
// rank's finish instant, which is each transfer's delivery for a rank that
// ends by waiting on it. Ranks start at t=0 in rank order, so a lower rank
// posts first; a 100-instruction burst (100ns) delays a post past them.

// replayFinishes replays ts on cfg and returns every rank's finish in
// microseconds, plus the network stats.
func replayFinishes(t *testing.T, ts *trace.Set, cfg machine.Config) ([]float64, NetworkStats) {
	t.Helper()
	res, err := simulateFresh(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(res.Timelines.Lines))
	for i, l := range res.Timelines.Lines {
		out[i] = float64(l.Finish) / float64(units.Microsecond)
	}
	return out, res.Network
}

func checkFinishes(t *testing.T, got, want []float64) {
	t.Helper()
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d finishes at %vus, want %vus (all: %v)", r, got[r], want[r], got)
		}
	}
}

// A transfer blocked on its output link stays queued while a later,
// unrelated transfer starts at once: FIFO with skip, not strict FIFO.
func TestArbitrationSkipsLinkBlockedHead(t *testing.T) {
	cfg := testConfig()
	cfg.OutLinks = 1
	ts := trace.NewSet("skip", "original", 5, 1000)
	ts.Traces[0].Append(trace.ISend(1, 0, 1000, 1), trace.ISend(2, 0, 1000, 2), trace.Wait(1), trace.Wait(2))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000))
	ts.Traces[2].Append(trace.Recv(0, 0, 1000))
	ts.Traces[3].Append(trace.ISend(4, 0, 1000, 1), trace.Wait(1))
	ts.Traces[4].Append(trace.Recv(3, 0, 1000))
	got, net := replayFinishes(t, ts, cfg)
	// 0->2 waits for 0->1 to clear node 0's link (wire 1-2us); 3->4 is
	// posted behind it but starts at t=0.
	checkFinishes(t, got, []float64{3, 2, 3, 2, 2})
	if net.MaxPending != 2 {
		t.Errorf("MaxPending = %d, want 2", net.MaxPending)
	}
}

// When the only bus frees, the earliest-posted startable transfer gets it,
// even though a later one waits on the output link the finishing transfer
// just released too.
func TestArbitrationBusGoesToEarliestPosted(t *testing.T) {
	cfg := testConfig()
	cfg.Buses, cfg.InLinks, cfg.OutLinks = 1, 1, 1
	ts := trace.NewSet("bus", "original", 5, 1000)
	// 0->1 holds the bus 0-1us; 2->3 queues at t=0, 0->4 at 0.1us.
	ts.Traces[0].Append(trace.ISend(1, 0, 1000, 1), trace.Burst(100), trace.ISend(4, 0, 1000, 2), trace.Wait(1), trace.Wait(2))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000))
	ts.Traces[2].Append(trace.ISend(3, 0, 1000, 1), trace.Wait(1))
	ts.Traces[3].Append(trace.Recv(2, 0, 1000))
	ts.Traces[4].Append(trace.Recv(0, 0, 1000))
	got, _ := replayFinishes(t, ts, cfg)
	// 2->3 wires 1-2us (delivered 3us), then 0->4 wires 2-3us (4us).
	checkFinishes(t, got, []float64{4, 2, 3, 3, 4})
}

// When a finishing transfer frees links but no bus was short, the waiting
// transfers on both freed links compete in post order: the earlier one
// queued on the input link beats the later one queued on both links.
func TestArbitrationFreedLinksGoToEarliestPosted(t *testing.T) {
	cfg := testConfig()
	cfg.InLinks, cfg.OutLinks = 1, 1
	ts := trace.NewSet("links", "original", 3, 1000)
	// 0->1 holds both of its links 0-1us; 2->1 queues at t=0 on node 1's
	// input link, 0->1 (tag 1) at 0.1us on both.
	ts.Traces[0].Append(trace.ISend(1, 0, 1000, 1), trace.Burst(100), trace.ISend(1, 1, 1000, 2), trace.Wait(1), trace.Wait(2))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000), trace.Recv(2, 0, 1000), trace.Recv(0, 1, 1000))
	ts.Traces[2].Append(trace.ISend(1, 0, 1000, 1), trace.Wait(1))
	got, _ := replayFinishes(t, ts, cfg)
	// 2->1 wires 1-2us (delivered 3us), then 0->1 tag 1 wires 2-3us (4us).
	checkFinishes(t, got, []float64{4, 4, 3})
}

// MaxPending is the peak queue length counting the transfer just posted,
// so a lone remote transfer that starts at once still counts 1, on any
// platform; a node-local transfer never queues.
func TestMaxPendingCountsImmediateStart(t *testing.T) {
	ts := trace.NewSet("one", "original", 2, 1000)
	ts.Traces[0].Append(trace.Send(1, 0, 1000))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000))
	uncontended := testConfig()
	bus1 := testConfig()
	bus1.Buses = 1
	local := testConfig()
	local.RanksPerNode = 2
	for _, c := range []struct {
		name string
		cfg  machine.Config
		want int
	}{{"uncontended", uncontended, 1}, {"bus1", bus1, 1}, {"local", local, 0}} {
		_, net := replayFinishes(t, ts, c.cfg)
		if net.MaxPending != c.want {
			t.Errorf("%s: MaxPending = %d, want %d", c.name, net.MaxPending, c.want)
		}
	}
}

// Releasing an input link restarts only the transfers bound for that
// node: one queued for another node's busy input link keeps waiting.
func TestInputLinkReleaseRestartsOnlyItsNode(t *testing.T) {
	cfg := testConfig()
	cfg.InLinks = 1
	ts := trace.NewSet("inlink", "original", 6, 1000)
	// 0->1 holds node 1's input 0-1us, 2->3 holds node 3's 0-2us; 4->3
	// and 5->1 queue behind them.
	ts.Traces[0].Append(trace.ISend(1, 0, 1000, 1), trace.Wait(1))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000), trace.Recv(5, 0, 1000))
	ts.Traces[2].Append(trace.ISend(3, 0, 2000, 1), trace.Wait(1))
	ts.Traces[3].Append(trace.Recv(2, 0, 2000), trace.Recv(4, 0, 1000))
	ts.Traces[4].Append(trace.ISend(3, 0, 1000, 1), trace.Wait(1))
	ts.Traces[5].Append(trace.ISend(1, 0, 1000, 1), trace.Wait(1))
	got, net := replayFinishes(t, ts, cfg)
	// 5->1 wires 1-2us (delivered 3us); 4->3 wires 2-3us (4us).
	checkFinishes(t, got, []float64{2, 3, 3, 4, 4, 3})
	if net.MaxPending != 2 {
		t.Errorf("MaxPending = %d, want 2", net.MaxPending)
	}
}
