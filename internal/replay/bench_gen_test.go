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
	cfg := gen64Config()
	r := NewReplayer()
	if _, err := r.SimulateSummary(ts, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SimulateSummary(ts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
