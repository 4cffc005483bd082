package replay

import (
	"fmt"

	"overlapsim/internal/machine"
	"overlapsim/internal/timeline"
	"overlapsim/internal/units"
)

// Summary is the cheap per-point outcome of a batched replay: exactly the
// fields a sweep consumes, derived without materializing Result, Timelines
// or RankBreakdowns. Every field matches the corresponding Simulate output
// bit for bit — Blocked replicates Result.MeanBlockedFraction's float
// arithmetic term by term.
type Summary struct {
	Total   units.Time // simulated runtime (max rank finish)
	Steps   int64      // DES events executed
	Blocked float64    // mean per-rank blocked-time fraction
}

// SimulateSummary runs one replay and reports only the summary — the warm
// path with no per-run result assembly. Semantics match Simulate exactly.
// It reads the replayer's struct-of-arrays finish state and the still-open
// timeline builders (StateDurations reads them without closing or
// copying).
func (s *Replayer) SimulateSummary(prog *Program, cfg machine.Config) (Summary, error) {
	if err := s.run(prog, cfg); err != nil {
		return Summary{}, err
	}
	sum := Summary{Steps: s.ranSteps}
	n := s.nprocs
	for _, f := range s.finish[:n] {
		if f > sum.Total {
			sum.Total = f
		}
	}
	if sum.Total > 0 && n > 0 {
		// Term-by-term replication of Result.MeanBlockedFraction: the
		// blocked states sum as integers per rank, each rank contributes
		// one division, ranks accumulate in rank order.
		denom := units.Duration(sum.Total).Seconds()
		var acc float64
		for _, p := range s.procs[:n] {
			d := p.tl.StateDurations(s.finish[p.rank])
			blocked := d[timeline.SendBlocked] + d[timeline.RecvBlocked] +
				d[timeline.WaitBlocked] + d[timeline.CollBlocked]
			acc += blocked.Seconds() / denom
		}
		sum.Blocked = acc / float64(n)
	}
	return sum, nil
}

// SimulateBatch replays the same program across many platform configs
// through one warm replayer, writing one Summary per config into out. Only
// the platform-dependent reset and the event loop itself run per point:
// validation and message pairing happened once, in Compile, and no result
// is assembled. On a config or model error it stops and returns how many
// leading points completed (out[:n] are valid) alongside the error.
func (s *Replayer) SimulateBatch(prog *Program, cfgs []machine.Config, out []Summary) (int, error) {
	if len(out) < len(cfgs) {
		return 0, fmt.Errorf("replay: batch output holds %d summaries for %d configs", len(out), len(cfgs))
	}
	if prog.ts.NRanks() == 0 {
		return 0, fmt.Errorf("replay: empty trace set")
	}
	for i, cfg := range cfgs {
		sum, err := s.SimulateSummary(prog, cfg)
		if err != nil {
			return i, fmt.Errorf("replay: batch point %d: %w", i, err)
		}
		out[i] = sum
	}
	return len(cfgs), nil
}
