package replay

import (
	"sync"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracegen"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// gen64 generates the benchmark workload once per process: a 64-rank 2D
// stencil (gen:stencil2d,ranks=64) with enough iterations and compute per
// iteration that the replay carries real event volume per rank. The
// generator closes each iteration with an Allreduce; those records are
// stripped so the set is the pure halo exchange, which keeps the workload
// identical to the one earlier baselines of BenchmarkReplayGen64Seq timed.
var gen64 = sync.OnceValues(func() (*trace.Set, error) {
	spec, err := tracegen.ParseSpec("gen:stencil2d,ranks=64,iters=12,msg=8192,comp=40000,seed=7")
	if err != nil {
		return nil, err
	}
	ps, err := tracegen.Generate(spec, tracer.Options{})
	if err != nil {
		return nil, err
	}
	ts := ps.Original
	for r := range ts.Traces {
		recs := ts.Traces[r].Records[:0]
		for _, rec := range ts.Traces[r].Records {
			if rec.Kind != trace.KindCollective {
				recs = append(recs, rec)
			}
		}
		ts.Traces[r].Records = recs
	}
	return ts, nil
})

// gen64Config is a contention-free platform with a 50us latency.
func gen64Config() machine.Config {
	c := testConfig()
	c.Latency = 50 * units.Microsecond
	return c
}

// BenchmarkReplayGen64Seq times the warm summary path — the same loop the
// sweep's batch prefill runs — on the 64-rank stencil replay.
func BenchmarkReplayGen64Seq(b *testing.B) {
	ts, err := gen64()
	if err != nil {
		b.Fatal(err)
	}
	prog := mustCompile(b, ts)
	cfg := gen64Config()
	r := NewReplayer()
	if _, err := r.SimulateSummary(prog, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SimulateSummary(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// contended64 generates the arbitration benchmark workload once per
// process: 64 ranks on a seeded random graph with expected out-degree 8 and
// 16 KB eager messages, so senders run ahead of their receivers and
// dozens of transfers queue at once.
var contended64 = sync.OnceValues(func() (*trace.Set, error) {
	spec, err := tracegen.ParseSpec("gen:randomsparse,ranks=64,iters=4,msg=16384,comp=20000,deg=8,seed=11")
	if err != nil {
		return nil, err
	}
	ps, err := tracegen.Generate(spec, tracer.Options{})
	if err != nil {
		return nil, err
	}
	return ps.Original, nil
})

// contendedConfig is the default platform with one shared bus and two
// ranks per node behind single links: transfers queue on the bus and on
// both link directions.
func contendedConfig() machine.Config {
	c := machine.Default()
	c.Buses = 1
	c.RanksPerNode, c.InLinks, c.OutLinks = 2, 1, 1
	return c
}

// BenchmarkReplayContended times the network arbitration layer: the warm
// summary path on a workload that keeps the bus saturated and the wait
// queue deep. The set is compiled once, outside the timer.
func BenchmarkReplayContended(b *testing.B) {
	ts, err := contended64()
	if err != nil {
		b.Fatal(err)
	}
	prog := mustCompile(b, ts)
	cfg := contendedConfig()
	r := NewReplayer()
	if _, err := r.SimulateSummary(prog, cfg); err != nil {
		b.Fatal(err)
	}
	res, err := r.Simulate(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if u := res.Network.BusUtilization(cfg.Buses, res.Total); u < 0.9 || res.Network.MaxPending < 32 {
		b.Fatalf("workload not contended: bus utilization %.2f, max pending %d", u, res.Network.MaxPending)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SimulateSummary(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
