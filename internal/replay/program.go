package replay

import (
	"fmt"
	"sync"
	"sync/atomic"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
)

// Program is a trace set compiled for replay: validated once, with every
// point-to-point record and every Wait resolved to the dense id of the
// transfer it posts or waits for. A replay then finds each message's
// transfer by index in a per-run arena.
//
// The pairing is static because matching is FIFO per directed channel
// (src, dst, tag) and each side of a channel is posted by one rank in its
// record order: the k-th send of a channel always meets the k-th receive,
// whatever the platform. A Program depends only on its trace set, so the
// holder of a set compiles it once and replays it on every platform. It
// assumes the set is not mutated afterwards, and is safe for concurrent
// use.
type Program struct {
	ts         *trace.Set
	ids        [][]int32 // per rank, per record: transfer id of p2p and Wait records
	ntransfers int
	runs       atomic.Int64
}

// Compile validates the trace set and pairs its messages. It fails exactly
// when trace.Validate does, with its error; only a nil set is rejected
// before validation.
func Compile(ts *trace.Set) (*Program, error) {
	if ts == nil {
		return nil, fmt.Errorf("replay: empty trace set")
	}
	if err := trace.Validate(ts); err != nil {
		return nil, err
	}
	p := &Program{ts: ts, ids: make([][]int32, len(ts.Traces))}
	n := 0
	for i := range ts.Traces {
		n += len(ts.Traces[i].Records)
	}
	flat := make([]int32, n)
	for i := range ts.Traces {
		k := len(ts.Traces[i].Records)
		p.ids[i], flat = flat[:k:k], flat[k:]
	}

	// Pass 1 numbers the channels, counts each one's sends and parks every
	// point-to-point record's channel number in its id slot.
	type channel struct{ src, dst, tag int }
	chans := map[channel]int32{}
	var sends []int32 // per channel
	for i := range ts.Traces {
		recs := ts.Traces[i].Records
		for j := range recs {
			rec := &recs[j]
			var c channel
			switch rec.Kind {
			case trace.KindSend, trace.KindISend:
				c = channel{i, rec.Peer, rec.Tag}
			case trace.KindRecv, trace.KindIRecv:
				c = channel{rec.Peer, i, rec.Tag}
			default:
				continue
			}
			ci, ok := chans[c]
			if !ok {
				ci = int32(len(sends))
				chans[c] = ci
				sends = append(sends, 0)
			}
			if rec.Kind == trace.KindSend || rec.Kind == trace.KindISend {
				sends[ci]++
			}
			p.ids[i][j] = ci
		}
	}

	// Each channel owns a contiguous id range, one per send. Pass 2 gives
	// the k-th send and the k-th receive of a channel the range's k-th id
	// (the validator guarantees the counts agree) and each Wait the id its
	// request posted.
	next := make([][2]int32, len(sends)) // per channel: next send id, next receive id
	for ci, k := range sends {
		next[ci] = [2]int32{int32(p.ntransfers), int32(p.ntransfers)}
		p.ntransfers += int(k)
	}
	reqs := map[int]int32{} // this rank's request id -> transfer id
	for i := range ts.Traces {
		recs, ids := ts.Traces[i].Records, p.ids[i]
		clear(reqs)
		for j := range recs {
			rec := &recs[j]
			side := 0
			switch rec.Kind {
			case trace.KindRecv, trace.KindIRecv:
				side = 1
			case trace.KindSend, trace.KindISend:
			case trace.KindWait:
				ids[j] = reqs[rec.Req]
				continue
			default:
				continue
			}
			cur := &next[ids[j]][side]
			ids[j] = *cur
			*cur++
			if rec.Kind == trace.KindISend || rec.Kind == trace.KindIRecv {
				reqs[rec.Req] = ids[j]
			}
		}
	}
	return p, nil
}

// Set returns the compiled trace set.
func (p *Program) Set() *trace.Set { return p.ts }

// Runs returns how many replays of the program have run, counting every
// point of a batch.
func (p *Program) Runs() int64 { return p.runs.Load() }

// replayerPool recycles Replayers across pooled runs, so callers that do
// not own a Replayer still get warm scratch — in a sweep every worker
// reuses scratch state from earlier grid points.
var replayerPool = sync.Pool{New: func() any { return NewReplayer() }}

// Simulate replays the program on the platform through a pooled Replayer;
// see the package-level Simulate for the model contract.
func (p *Program) Simulate(cfg machine.Config) (*Result, error) {
	r := replayerPool.Get().(*Replayer)
	defer replayerPool.Put(r)
	return r.Simulate(p, cfg)
}

// Summary replays the program on the platform through a pooled Replayer
// and reports only the summary; see Replayer.SimulateSummary.
func (p *Program) Summary(cfg machine.Config) (Summary, error) {
	r := replayerPool.Get().(*Replayer)
	defer replayerPool.Put(r)
	return r.SimulateSummary(p, cfg)
}

// Batch replays the program on every config through one pooled Replayer;
// see Replayer.SimulateBatch.
func (p *Program) Batch(cfgs []machine.Config, out []Summary) (int, error) {
	r := replayerPool.Get().(*Replayer)
	defer replayerPool.Put(r)
	return r.SimulateBatch(p, cfgs, out)
}

// Simulate replays the trace set on the platform. The platform is auto-
// sized to the rank count when its capacity is too small; MIPS 0 defers to
// the rate recorded in the trace. Simulate is a pure function of its
// arguments. It compiles the set on every call: callers that replay one
// set more than once compile it once and run the Program instead.
func Simulate(ts *trace.Set, cfg machine.Config) (*Result, error) {
	p, err := Compile(ts)
	if err != nil {
		return nil, err
	}
	return p.Simulate(cfg)
}

// SimulateBatch compiles the trace set and replays it on every config; see
// Replayer.SimulateBatch. The last argument is ignored: it once selected a
// parallel replay width and stays only so existing callers keep compiling.
func SimulateBatch(ts *trace.Set, cfgs []machine.Config, out []Summary, _ int) (int, error) {
	p, err := Compile(ts)
	if err != nil {
		return 0, err
	}
	return p.Batch(cfgs, out)
}
