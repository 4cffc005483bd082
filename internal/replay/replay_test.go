package replay

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// testConfig gives round numbers: 1000 MIPS (1 instruction = 1 ns), 1 us
// latency, ~1 byte/ns bandwidth (1000 bytes transfer in 1 us), no
// contention limits, everything eager below 32 KB.
func testConfig() machine.Config {
	c := machine.Default()
	c.Name = "test"
	c.MIPS = 1000
	c.Latency = 1 * units.Microsecond
	c.CPUOverhead = 0 // exact-arithmetic tests; overhead is tested separately
	c.Bandwidth = units.Bandwidth(1e9)
	c.Buses = 0
	c.InLinks = 0
	c.OutLinks = 0
	c.EagerThreshold = 32 * units.KB
	c.RanksPerNode = 1
	return c
}

// mustCompile compiles a trace set the test expects to be valid.
func mustCompile(tb testing.TB, ts *trace.Set) *Program {
	tb.Helper()
	prog, err := Compile(ts)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// simulateFresh compiles the set and replays it on a cold replayer.
func simulateFresh(ts *trace.Set, cfg machine.Config) (*Result, error) {
	prog, err := Compile(ts)
	if err != nil {
		return nil, err
	}
	return NewReplayer().Simulate(prog, cfg)
}

func TestSimulatePureCompute(t *testing.T) {
	ts := trace.NewSet("compute", "original", 1, 1000)
	ts.Traces[0].Append(trace.Burst(5000))
	res, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != units.Time(5*units.Microsecond) {
		t.Errorf("Total = %v, want 5us", res.Total)
	}
	if res.Ranks()[0].Compute != 5*units.Microsecond {
		t.Errorf("Compute = %v, want 5us", res.Ranks()[0].Compute)
	}
	if res.Ranks()[0].Blocked() != 0 {
		t.Errorf("Blocked = %v, want 0", res.Ranks()[0].Blocked())
	}
}

func TestSimulateEagerPingTiming(t *testing.T) {
	ts := trace.NewSet("ping", "original", 2, 1000)
	ts.Traces[0].Append(trace.Burst(1000), trace.Send(1, 0, 1000))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000))
	res, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Send posted at 1us (after the burst), wire 1us, latency 1us: the
	// receiver finishes at 3us. The eager sender finishes at 1us.
	if res.Total != units.Time(3*units.Microsecond) {
		t.Errorf("Total = %v, want 3us", res.Total)
	}
	if res.Ranks()[0].Finish != units.Time(1*units.Microsecond) {
		t.Errorf("eager sender finish = %v, want 1us", res.Ranks()[0].Finish)
	}
	if res.Ranks()[1].Recv != 3*units.Microsecond {
		t.Errorf("receiver blocked %v, want 3us", res.Ranks()[1].Recv)
	}
	if res.Network.Transfers != 1 || res.Network.Bytes != 1000 {
		t.Errorf("network stats = %+v", res.Network)
	}
}

func TestSimulateRendezvousBlocksSender(t *testing.T) {
	cfg := testConfig()
	cfg.EagerThreshold = 0 // everything rendezvous
	ts := trace.NewSet("rdv", "original", 2, 1000)
	ts.Traces[0].Append(trace.Burst(1000), trace.Send(1, 0, 1000))
	ts.Traces[1].Append(trace.Burst(4000), trace.Recv(0, 0, 1000))
	res, err := Simulate(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Receive posted at 4us; transfer 4..5us wire, delivery 6us. The
	// rendezvous sender stalls from 1us until delivery.
	if res.Ranks()[0].Finish != units.Time(6*units.Microsecond) {
		t.Errorf("rendezvous sender finish = %v, want 6us", res.Ranks()[0].Finish)
	}
	if res.Ranks()[0].Send != 5*units.Microsecond {
		t.Errorf("sender SendBlocked = %v, want 5us", res.Ranks()[0].Send)
	}
	if res.Total != units.Time(6*units.Microsecond) {
		t.Errorf("Total = %v, want 6us", res.Total)
	}
}

func TestSimulateBusContentionSerializes(t *testing.T) {
	mk := func(buses int) units.Time {
		cfg := testConfig()
		cfg.Buses = buses
		ts := trace.NewSet("pair", "original", 4, 1000)
		ts.Traces[0].Append(trace.Send(1, 0, 1000))
		ts.Traces[1].Append(trace.Recv(0, 0, 1000))
		ts.Traces[2].Append(trace.Send(3, 0, 1000))
		ts.Traces[3].Append(trace.Recv(2, 0, 1000))
		res, err := Simulate(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	free := mk(0)      // both transfers concurrent: 0+1+1 = 2us
	serial := mk(1)    // second waits for the bus: 3us
	parallel2 := mk(2) // two buses: concurrent again
	if free != units.Time(2*units.Microsecond) {
		t.Errorf("uncontended total = %v, want 2us", free)
	}
	if serial != units.Time(3*units.Microsecond) {
		t.Errorf("single-bus total = %v, want 3us", serial)
	}
	if parallel2 != free {
		t.Errorf("2-bus total = %v, want %v", parallel2, free)
	}
}

func TestSimulateOutputLinkContention(t *testing.T) {
	// One sender, two messages to different receivers, one output link:
	// the second transfer waits for the first to clear the link.
	cfg := testConfig()
	cfg.OutLinks = 1
	ts := trace.NewSet("fanout", "original", 3, 1000)
	ts.Traces[0].Append(trace.ISend(1, 0, 1000, 1), trace.ISend(2, 0, 1000, 2))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000))
	ts.Traces[2].Append(trace.Recv(0, 0, 1000))
	res, err := Simulate(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First: wire 0-1us, delivery 2us. Second: wire 1-2us, delivery 3us.
	if res.Total != units.Time(3*units.Microsecond) {
		t.Errorf("Total = %v, want 3us", res.Total)
	}
	if res.Network.MaxPending < 1 {
		t.Errorf("expected pending queue usage, stats = %+v", res.Network)
	}
}

func TestSimulateLocalTransferBypassesNetwork(t *testing.T) {
	cfg := testConfig()
	cfg.RanksPerNode = 2
	cfg.Buses = 1
	cfg.LocalLatency = 100 // 100ns
	ts := trace.NewSet("local", "original", 2, 1000)
	ts.Traces[0].Append(trace.Send(1, 0, 1000))
	ts.Traces[1].Append(trace.Recv(0, 0, 1000))
	res, err := Simulate(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Local: LocalLatency + infinite local bandwidth = 100ns.
	if res.Total != units.Time(100) {
		t.Errorf("local transfer total = %v, want 100ns", res.Total)
	}
	if res.Network.LocalTransfers != 1 {
		t.Errorf("LocalTransfers = %d, want 1", res.Network.LocalTransfers)
	}
	if res.Network.BusTime != 0 {
		t.Errorf("local transfer must not use buses, BusTime = %v", res.Network.BusTime)
	}
}

func TestSimulateCollectiveCost(t *testing.T) {
	cfg := testConfig()
	cfg.Bandwidth = 0 // isolate the latency term
	ts := trace.NewSet("coll", "original", 4, 1000)
	for r := 0; r < 4; r++ {
		b := int64(1000 * (r + 1)) // ranks arrive at different times
		ts.Traces[r].Append(trace.Burst(b), trace.Global(trace.Barrier, 0, 0))
	}
	res, err := Simulate(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Last arrival at 4us; barrier on 4 ranks, log model: 2 stages x 1us.
	if res.Total != units.Time(6*units.Microsecond) {
		t.Errorf("Total = %v, want 6us", res.Total)
	}
	// Rank 0 arrived at 1us and left at 6us: 5us in collective.
	if res.Ranks()[0].Collective != 5*units.Microsecond {
		t.Errorf("rank 0 collective time = %v, want 5us", res.Ranks()[0].Collective)
	}
	if res.Network.Collectives != 1 {
		t.Errorf("Collectives = %d, want 1", res.Network.Collectives)
	}
}

func TestSimulateIrecvWaitOverlapsCompute(t *testing.T) {
	// Receiver posts early, computes 5us, then waits: the 3us transfer is
	// fully hidden behind computation.
	ts := trace.NewSet("hide", "original", 2, 1000)
	ts.Traces[0].Append(trace.ISend(1, 0, 2000, 1))
	ts.Traces[1].Append(trace.IRecv(0, 0, 2000, 1), trace.Burst(5000), trace.Wait(1))
	res, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Transfer: wire 2us + latency 1us = delivered at 3us < 5us compute.
	if res.Total != units.Time(5*units.Microsecond) {
		t.Errorf("Total = %v, want 5us (transfer hidden)", res.Total)
	}
	if res.Ranks()[1].Wait != 0 {
		t.Errorf("receiver wait time = %v, want 0", res.Ranks()[1].Wait)
	}
}

func TestSimulateCPUOverheadCharged(t *testing.T) {
	cfg := testConfig()
	cfg.CPUOverhead = 2 * units.Microsecond
	ts := trace.NewSet("ovh", "original", 2, 1000)
	ts.Traces[0].Append(trace.ISend(1, 0, 100, 1), trace.ISend(1, 1, 100, 2))
	ts.Traces[1].Append(trace.Recv(0, 0, 100), trace.Recv(0, 1, 100))
	res, err := Simulate(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sender: 2 postings x 2us overhead; it finishes at 4us.
	if res.Ranks()[0].Overhead != 4*units.Microsecond {
		t.Errorf("sender overhead = %v, want 4us", res.Ranks()[0].Overhead)
	}
	if res.Ranks()[0].Finish != units.Time(4*units.Microsecond) {
		t.Errorf("sender finish = %v, want 4us", res.Ranks()[0].Finish)
	}
	// Receiver pays overhead per recv posting as well.
	if res.Ranks()[1].Overhead != 4*units.Microsecond {
		t.Errorf("receiver overhead = %v, want 4us", res.Ranks()[1].Overhead)
	}
}

func TestSimulateDeadlockDetected(t *testing.T) {
	cfg := testConfig()
	cfg.EagerThreshold = 0 // rendezvous everywhere
	ts := trace.NewSet("deadlock", "original", 2, 1000)
	// Classic head-to-head blocking sends.
	ts.Traces[0].Append(trace.Send(1, 0, 1000), trace.Recv(1, 1, 1000))
	ts.Traces[1].Append(trace.Send(0, 1, 1000), trace.Recv(0, 0, 1000))
	_, err := Simulate(ts, cfg)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "rank 0") {
		t.Errorf("deadlock diagnostics should name ranks: %v", err)
	}
}

// TestStaticPairingFollowsPostOrder replays a channel whose sends carry
// sizes [1000, 3000] and whose receives carry [3000, 1000]: the validator
// accepts it (it matches multisets), and replay pairs the k-th send with
// the k-th receive regardless of size. Rank 1 posts both its first receive
// and an IRecv on a second channel before rank 0 sends anything. Pairing
// by size would hand the first receive the 3000-byte message, delivered
// 2us later, and finish at 15us.
func TestStaticPairingFollowsPostOrder(t *testing.T) {
	ts := trace.NewSet("pairing", "original", 2, 1000)
	ts.Traces[0].Append(
		trace.Burst(1000),
		trace.Send(1, 0, 1000),
		trace.Send(1, 0, 3000),
		trace.ISend(1, 1, 500, 9),
		trace.Wait(9),
	)
	ts.Traces[1].Append(
		trace.IRecv(0, 1, 500, 7),
		trace.Recv(0, 0, 3000),
		trace.Burst(10000),
		trace.Recv(0, 0, 1000),
		trace.Wait(7),
	)
	res, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The first receive gets the 1000-byte message (posted 1us, wire 1us,
	// latency 1us): delivered at 3us, then 10us of compute.
	if res.Total != units.Time(13*units.Microsecond) {
		t.Errorf("Total = %v, want 13us", res.Total)
	}
	if res.Network.Bytes != 4500 || res.Network.Transfers != 3 {
		t.Errorf("Network = %+v, want 3 transfers of 4500 bytes", res.Network)
	}
}

func TestSimulateRejectsInvalidInput(t *testing.T) {
	if _, err := Simulate(nil, testConfig()); err == nil {
		t.Error("nil set: expected error")
	}
	bad := trace.NewSet("bad", "original", 2, 1000)
	bad.Traces[0].Append(trace.Send(1, 0, 100)) // unmatched
	if _, err := Simulate(bad, testConfig()); err == nil {
		t.Error("invalid set: expected error")
	}
	cfg := testConfig()
	cfg.Nodes = -1
	if _, err := Simulate(trace.NewSet("x", "o", 1, 1000), cfg); err == nil {
		t.Error("invalid config: expected error")
	}
}

func TestSimulateAutoSizesPlatform(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1 // too small for 4 ranks; must auto-extend
	ts := trace.NewSet("size", "original", 4, 1000)
	for r := 0; r < 4; r++ {
		ts.Traces[r].Append(trace.Burst(100))
	}
	if _, err := Simulate(ts, cfg); err != nil {
		t.Fatalf("auto-sizing failed: %v", err)
	}
}

func TestSimulateUsesTraceMIPSWhenZero(t *testing.T) {
	cfg := testConfig()
	cfg.MIPS = 0
	ts := trace.NewSet("mips", "original", 1, 2000) // 2000 MIPS: 1 instr = 0.5ns
	ts.Traces[0].Append(trace.Burst(2000))
	res, err := Simulate(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != units.Time(1*units.Microsecond) {
		t.Errorf("Total = %v, want 1us (trace MIPS)", res.Total)
	}
}

func TestSimulateMarkersRecorded(t *testing.T) {
	ts := trace.NewSet("mark", "original", 1, 1000)
	ts.Traces[0].Append(trace.Marker("phase-a"), trace.Burst(1000), trace.Marker("phase-b"))
	res, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Timelines.Lines[0].Events
	if len(ev) != 2 || ev[0].Label != "phase-a" || ev[1].At != units.Time(units.Microsecond) {
		t.Errorf("events = %+v", ev)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	ts := pipelineSet()
	a, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.Steps != b.Steps {
		t.Fatalf("nondeterministic totals: %v/%d vs %v/%d", a.Total, a.Steps, b.Total, b.Steps)
	}
	if !reflect.DeepEqual(a.Timelines, b.Timelines) {
		t.Fatal("nondeterministic timelines")
	}
}

// pipelineSet builds a 4-rank chain: each rank receives from the left,
// computes, sends to the right.
func pipelineSet() *trace.Set {
	const n = 4
	ts := trace.NewSet("chain", "original", n, 1000)
	for r := 0; r < n; r++ {
		if r > 0 {
			ts.Traces[r].Append(trace.Recv(r-1, 0, 4000))
		}
		ts.Traces[r].Append(trace.Burst(3000))
		if r < n-1 {
			ts.Traces[r].Append(trace.Send(r+1, 0, 4000))
		}
	}
	return ts
}

func TestOverlappedTraceBeatsOriginal(t *testing.T) {
	// End-to-end with the transform: a producer/consumer pair with linear
	// patterns must speed up under automatic overlap on a bandwidth where
	// communication is comparable to computation.
	cfg := testConfig()
	cfg.Bandwidth = units.Bandwidth(100e6) // 10 ns per byte: 10000B = 100us

	orig := trace.NewSet("pc", "original", 2, 1000)
	orig.Traces[0].Append(trace.Burst(100000), trace.Send(1, 0, 10000)) // 100us compute, 100us wire
	orig.Traces[1].Append(trace.Recv(0, 0, 10000), trace.Burst(100000))
	ps := &overlap.ProfiledSet{
		Original:    orig,
		Chunks:      8,
		Annotations: []map[int]overlap.Annotation{{}, {}},
	}
	over, err := overlap.Transform(ps, overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := Simulate(orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Simulate(over, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total >= r0.Total {
		t.Fatalf("overlap did not help: original %v, overlapped %v", r0.Total, r1.Total)
	}
	// With 8 chunks of a perfectly linear pattern the ~100us transfer
	// should hide almost completely: expect at least 30% improvement.
	if float64(r1.Total) > 0.7*float64(r0.Total) {
		t.Errorf("overlap too weak: original %v, overlapped %v", r0.Total, r1.Total)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	res, err := Simulate(pipelineSet(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range res.Ranks() {
		active := rb.Compute + rb.Blocked()
		if active > units.Duration(rb.Finish) {
			t.Errorf("rank %d: active %v exceeds finish %v", rb.Rank, active, rb.Finish)
		}
		if rb.Finish > res.Total {
			t.Errorf("rank %d finish %v exceeds total %v", rb.Rank, rb.Finish, res.Total)
		}
	}
	if res.Timelines.Validate() != nil {
		t.Error("timelines invalid")
	}
}

func TestBlockedFractions(t *testing.T) {
	res, err := Simulate(pipelineSet(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	maxF, meanF := res.MaxBlockedFraction(), res.MeanBlockedFraction()
	if maxF < meanF {
		t.Errorf("max %v < mean %v", maxF, meanF)
	}
	if maxF <= 0 || maxF > 1 {
		t.Errorf("max blocked fraction = %v, want in (0,1]", maxF)
	}
}

func TestBusUtilization(t *testing.T) {
	var n NetworkStats
	n.BusTime = 5 * units.Microsecond
	if got := n.BusUtilization(0, units.Time(units.Microsecond)); got != 0 {
		t.Errorf("infinite buses utilization = %v, want 0", got)
	}
	if got := n.BusUtilization(1, units.Time(10*units.Microsecond)); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
}

// randomValidSet mirrors the generator in the trace tests: pairs of matched
// sends/recvs plus shared collectives, always valid.
func randomValidSet(rng *rand.Rand) *trace.Set {
	nranks := rng.Intn(5) + 2
	s := trace.NewSet("prop", "original", nranks, units.MIPS(rng.Intn(2000)+100))
	for p := 0; p < rng.Intn(20)+1; p++ {
		src := rng.Intn(nranks)
		dst := (src + 1 + rng.Intn(nranks-1)) % nranks
		size := units.Bytes(rng.Intn(1 << 14))
		tag := p % 5
		s.Traces[src].Append(trace.Burst(int64(rng.Intn(5000))), trace.Send(dst, tag, size))
		s.Traces[dst].Append(trace.Burst(int64(rng.Intn(5000))))
		// Post the receive non-blockingly half the time.
		if rng.Intn(2) == 0 {
			req := 1000 + p
			s.Traces[dst].Append(trace.IRecv(src, tag, size, req), trace.Burst(int64(rng.Intn(2000))), trace.Wait(req))
		} else {
			s.Traces[dst].Append(trace.Recv(src, tag, size))
		}
	}
	for c := 0; c < rng.Intn(3); c++ {
		sz := units.Bytes(rng.Intn(1024))
		for r := 0; r < nranks; r++ {
			s.Traces[r].Append(trace.Global(trace.Allreduce, sz, 0))
		}
	}
	return s
}

func TestPropertySimulationInvariants(t *testing.T) {
	// Random valid sets replay without error; total equals max finish;
	// delivered bytes match the trace payload; timelines validate.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := randomValidSet(rng)
		cfg := testConfig()
		cfg.Buses = rng.Intn(4) // 0..3
		cfg.EagerThreshold = units.Bytes(rng.Intn(1 << 14))
		res, err := Simulate(ts, cfg)
		if err != nil {
			return false
		}
		var maxFin units.Time
		for _, rb := range res.Ranks() {
			if rb.Finish > maxFin {
				maxFin = rb.Finish
			}
		}
		if maxFin != res.Total {
			return false
		}
		if res.Network.Bytes != trace.Stats(ts).Bytes {
			return false
		}
		return res.Timelines.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMoreBandwidthNeverSlower(t *testing.T) {
	// Monotonicity: on a contention-free platform, raising bandwidth never
	// increases total runtime.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := randomValidSet(rng)
		cfg := testConfig()
		slow, err1 := Simulate(ts, cfg.WithBandwidth(10*units.MBPerSec))
		fast, err2 := Simulate(ts, cfg.WithBandwidth(1000*units.MBPerSec))
		if err1 != nil || err2 != nil {
			return false
		}
		return fast.Total <= slow.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSimulatePipeline times the pooled replay of a small program:
// the set is compiled once, outside the timer, as every repeated caller
// does.
func BenchmarkSimulatePipeline(b *testing.B) {
	prog := mustCompile(b, pipelineSet())
	cfg := testConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
