package replay

import (
	"fmt"

	"overlapsim/internal/des"
	"overlapsim/internal/machine"
	"overlapsim/internal/timeline"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// NetworkStats aggregates what the network did during a replay.
type NetworkStats struct {
	Transfers      int            // point-to-point transfers completed
	LocalTransfers int            // subset that stayed within a node
	Bytes          units.Bytes    // total point-to-point payload
	BusTime        units.Duration // total wire occupancy summed over buses
	Collectives    int            // collective operations completed
	MaxPending     int            // peak transfers queued for resources
}

// BusUtilization returns the mean fraction of the configured buses kept
// busy over the run; 0 when the platform has unlimited buses.
func (n NetworkStats) BusUtilization(buses int, total units.Time) float64 {
	if buses <= 0 || total <= 0 {
		return 0
	}
	return n.BusTime.Seconds() / (float64(buses) * units.Duration(total).Seconds())
}

// RankBreakdown is the per-rank time accounting of a replay.
type RankBreakdown struct {
	Rank       int
	Finish     units.Time
	Compute    units.Duration
	Overhead   units.Duration
	Send       units.Duration
	Recv       units.Duration
	Wait       units.Duration
	Collective units.Duration
}

// Blocked sums all communication stall time.
func (r RankBreakdown) Blocked() units.Duration {
	return r.Send + r.Recv + r.Wait + r.Collective
}

// Result is the outcome of replaying one trace set.
type Result struct {
	Total     units.Time // simulated runtime (max rank finish)
	Timelines *timeline.Set
	Network   NetworkStats
	Steps     int64 // DES events executed
}

// Ranks derives the per-rank time accounting from the timelines. It is a
// method rather than a stored field so the warm Simulate path only pays
// for breakdowns when a caller wants them; each call allocates a fresh
// slice the caller owns.
func (r *Result) Ranks() []RankBreakdown {
	if r.Timelines == nil {
		return nil
	}
	out := make([]RankBreakdown, 0, len(r.Timelines.Lines))
	for i := range r.Timelines.Lines {
		l := &r.Timelines.Lines[i]
		out = append(out, RankBreakdown{
			Rank:       l.Rank,
			Finish:     l.Finish,
			Compute:    l.TimeIn(timeline.Compute),
			Overhead:   l.TimeIn(timeline.Overhead),
			Send:       l.TimeIn(timeline.SendBlocked),
			Recv:       l.TimeIn(timeline.RecvBlocked),
			Wait:       l.TimeIn(timeline.WaitBlocked),
			Collective: l.TimeIn(timeline.CollBlocked),
		})
	}
	return out
}

// MaxBlockedFraction returns the largest per-rank blocked-time share, a
// platform-dependent measure of how communication-bound the execution is.
// Interval durations are integers, so summing a line's blocked intervals
// in one pass equals summing its RankBreakdown fields exactly.
func (r *Result) MaxBlockedFraction() float64 {
	if r.Total <= 0 || r.Timelines == nil {
		return 0
	}
	var worst float64
	for i := range r.Timelines.Lines {
		f := r.Timelines.Lines[i].BlockedTime().Seconds() / units.Duration(r.Total).Seconds()
		if f > worst {
			worst = f
		}
	}
	return worst
}

// MeanBlockedFraction returns the mean per-rank blocked-time share.
func (r *Result) MeanBlockedFraction() float64 {
	if r.Total <= 0 || r.Timelines == nil || len(r.Timelines.Lines) == 0 {
		return 0
	}
	var sum float64
	for i := range r.Timelines.Lines {
		sum += r.Timelines.Lines[i].BlockedTime().Seconds() / units.Duration(r.Total).Seconds()
	}
	return sum / float64(len(r.Timelines.Lines))
}

// Event kinds of the replay model. A proc only ever receives evAdvance;
// transfers receive the network-phase kinds.
const (
	evAdvance  des.Kind = iota // proc: resume the rank's state machine
	evDeliver                  // transfer: delivery completes
	evWireDone                 // transfer: wire occupancy ends, resources free
)

// transfer is one point-to-point message moving through the network model.
// It lives in the replayer's per-run arena at the id its Program assigned,
// zeroed at reset, and whichever half is posted first fills it in.
type transfer struct {
	sim              *Replayer
	srcNode, dstNode int // set when the sender posts
	size             units.Bytes
	local            bool
	eager            bool

	sendPosted, recvPosted bool
	started                bool
	delivered              bool

	// waiters are the procs blocked on delivery, in resume order. At most
	// one per side can block: a blocking sender or the Wait of an ISend,
	// and a blocking receiver or the Wait of an IRecv.
	waiters [2]*proc
}

// block parks p on the transfer until delivery, behind any proc already
// blocked on it.
func (t *transfer) block(p *proc) {
	if t.waiters[0] == nil {
		t.waiters[0] = p
	} else {
		t.waiters[1] = p
	}
}

// The wait queues a waiting transfer is on: all waiting transfers in post
// order, those leaving its source node (output links), and those entering
// its destination node (input links).
const (
	qAll = iota
	qOut
	qIn
	nQueues
)

// waitEntry is a waiting transfer's place on the three wait queues, kept
// apart from the transfer so that transfers which never wait stay small.
// It repeats the transfer's nodes so that a queue walk reads only entries.
// Entries come from the replayer's free list and return to it when their
// transfer starts.
type waitEntry struct {
	t                *transfer
	srcNode, dstNode int
	seq              uint64 // post order
	links            [nQueues]struct{ prev, next *waitEntry }
}

// waitQueue is an intrusive FIFO of wait entries threaded through their
// links[k], for one k: push and remove are O(1) and never allocate.
type waitQueue struct{ head, tail *waitEntry }

func (q *waitQueue) push(w *waitEntry, k int) {
	l := &w.links[k]
	l.prev, l.next = q.tail, nil
	if q.tail != nil {
		q.tail.links[k].next = w
	} else {
		q.head = w
	}
	q.tail = w
}

func (q *waitQueue) remove(w *waitEntry, k int) {
	l := &w.links[k]
	if l.prev != nil {
		l.prev.links[k].next = l.next
	} else {
		q.head = l.next
	}
	if l.next != nil {
		l.next.links[k].prev = l.prev
	} else {
		q.tail = l.prev
	}
}

// HandleEvent dispatches the transfer's typed events.
func (t *transfer) HandleEvent(k des.Kind) {
	switch k {
	case evDeliver:
		t.sim.deliver(t)
	case evWireDone:
		t.sim.wireDone(t)
	default:
		t.sim.fail(fmt.Errorf("replay: transfer received unknown event kind %d", k))
	}
}

// collSlot synchronizes one collective operation across ranks. Ranks find
// their slot by their per-rank collective counter; the trace validator
// guarantees all ranks agree on the sequence. Slots are pooled.
type collSlot struct {
	idx     int
	rec     trace.Record
	arrived int
	procs   []*proc
}

// Replayer is a reusable replayer of compiled Programs. It owns all replay
// scratch state — the DES engine and its queue, rank state machines, the
// transfer arena, collective slots — and recycles everything across runs,
// so a warm replayer's event loop runs without heap allocation. The zero
// value is not usable; create replayers with NewReplayer. A Replayer must
// not be used concurrently; the Program methods and the package-level
// Simulate draw from an internal pool and are safe for concurrent use.
type Replayer struct {
	eng  *des.Engine
	cfg  machine.Config
	mips units.MIPS

	procs  []*proc // reusable rank machines; procs[:nprocs] are active
	nprocs int
	finish []units.Time // per-rank finish instants (struct-of-arrays)
	done   []bool       // per-rank completion flags

	xfers []transfer // this run's transfers, indexed by Program id

	// Network arbitration: resources in use, and the protocol-ready remote
	// transfers waiting for them (see maybeStart and arbitrate).
	outUse  []int        // per-node output links in use
	inUse   []int        // per-node input links in use
	busUse  int          // buses in use
	waitAll waitQueue    // every waiting transfer, in post order
	waitOut []waitQueue  // waiting transfers per source node
	waitIn  []waitQueue  // waiting transfers per destination node
	nwait   int          // transfers on waitAll
	postSeq uint64       // seq of the next transfer to wait
	freeW   []*waitEntry // wait entry free list

	slots     map[int]*collSlot
	freeSlots []*collSlot // collective slot free list

	stats    NetworkStats
	err      error
	ranSteps int64 // DES events executed by the last run
}

// NewReplayer returns a replayer with cold scratch state.
func NewReplayer() *Replayer {
	return &Replayer{
		eng:   des.New(),
		slots: map[int]*collSlot{},
	}
}

// Simulate replays the program on the platform; see the package-level
// Simulate for the model contract. The replayer's scratch state is reused,
// so after the first run on a trace shape the steady-state event loop does
// not allocate.
func (s *Replayer) Simulate(prog *Program, cfg machine.Config) (*Result, error) {
	if err := s.run(prog, cfg); err != nil {
		return nil, err
	}

	// Result assembly is warm Simulate's entire allocation budget, so it
	// is packed hard: the Result and its timeline set share one block,
	// and every rank's intervals and events are carved out of two arenas
	// pre-sized with SnapshotBound — at most 4 allocations per run,
	// regardless of rank count (3 without markers). The handed-out
	// snapshot owns all of it; nothing aliases the builders.
	blk := &struct {
		res  Result
		tset timeline.Set
	}{}
	res, tset := &blk.res, &blk.tset
	res.Network = s.stats
	res.Steps = s.ranSteps
	tset.Name = prog.ts.Name
	tset.Variant = prog.ts.Variant
	tset.Lines = make([]timeline.Timeline, 0, s.nprocs)
	var nIv, nEv int
	for _, p := range s.procs[:s.nprocs] {
		iv, ev := p.tl.SnapshotBound()
		nIv, nEv = nIv+iv, nEv+ev
	}
	ivArena := make([]timeline.Interval, 0, nIv)
	var evArena []timeline.Event
	if nEv > 0 {
		evArena = make([]timeline.Event, 0, nEv)
	}
	for _, p := range s.procs[:s.nprocs] {
		finish := s.finish[p.rank]
		var line timeline.Timeline
		line, ivArena, evArena = p.tl.FinishInto(finish, ivArena, evArena)
		if finish > res.Total {
			res.Total = finish
		}
		tset.Lines = append(tset.Lines, line)
	}
	tset.Total = res.Total
	res.Timelines = tset
	if err := tset.Validate(); err != nil {
		return nil, fmt.Errorf("replay: internal timeline corruption: %w", err)
	}
	return res, nil
}

// run checks the config and replays the program once, leaving per-rank
// finish state, stats and step counts in place for the caller to assemble.
func (s *Replayer) run(prog *Program, cfg machine.Config) error {
	ts := prog.ts
	if ts.NRanks() == 0 {
		return fmt.Errorf("replay: empty trace set")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Capacity() < ts.NRanks() {
		cfg = cfg.WithNodes(ts.NRanks())
	}
	mips := cfg.MIPS
	if mips == 0 {
		mips = ts.MIPS
	}
	prog.runs.Add(1)
	s.reset(prog, cfg, mips)
	for _, p := range s.procs[:s.nprocs] {
		s.eng.ScheduleEvent(0, p, evAdvance)
	}
	err := s.eng.Run()
	s.ranSteps = s.eng.Steps()
	switch {
	case err != nil:
		err = fmt.Errorf("replay: %w", err)
	case s.err != nil:
		err = s.err
	default:
		err = s.checkAllFinished()
	}
	// Results never reference the trace, so detach it: an idle pooled
	// replayer must not pin the last trace set it ran.
	for _, p := range s.procs[:s.nprocs] {
		p.recs, p.ids = nil, nil
	}
	return err
}

// reset prepares the replayer for one run, recycling all scratch state. A
// preceding run that aborted mid-flight (deadlock, model error) may have
// left events, waiting transfers or collective slots behind; everything is
// cleared here rather than at the end of a run, so an errored replayer
// stays reusable.
func (s *Replayer) reset(prog *Program, cfg machine.Config, mips units.MIPS) {
	s.eng.Reset()
	s.cfg = cfg
	s.mips = mips
	s.stats = NetworkStats{}
	s.err = nil
	s.busUse = 0
	s.outUse = resizeZeroed(s.outUse, cfg.Nodes)
	s.inUse = resizeZeroed(s.inUse, cfg.Nodes)
	s.waitAll = waitQueue{}
	s.waitOut = resizeZeroed(s.waitOut, cfg.Nodes)
	s.waitIn = resizeZeroed(s.waitIn, cfg.Nodes)
	s.nwait = 0
	s.postSeq = 0
	s.xfers = resizeZeroed(s.xfers, prog.ntransfers)
	clear(s.slots)

	n := prog.ts.NRanks()
	for len(s.procs) < n {
		s.procs = append(s.procs, &proc{
			sim: s,
			tl:  timeline.NewBuilder(len(s.procs)),
		})
	}
	s.nprocs = n
	s.finish = resizeZeroed(s.finish, n)
	s.done = resizeZeroed(s.done, n)
	for i, p := range s.procs[:n] {
		p.rank = i
		p.recs = prog.ts.Traces[i].Records
		p.ids = prog.ids[i]
		p.pc = 0
		p.tl.Reset(i)
		p.collIdx = 0
		p.overheadPaid = false
	}
}

// resizeZeroed returns a zero-filled slice of length n, reusing the given
// backing array when it is large enough.
func resizeZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (s *Replayer) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.eng.Stop()
}

func (s *Replayer) checkAllFinished() error {
	var stuck []string
	for _, p := range s.procs[:s.nprocs] {
		if !s.done[p.rank] {
			desc := "at end of trace"
			if p.pc < len(p.recs) {
				desc = fmt.Sprintf("record %d (%s)", p.pc, p.recs[p.pc])
			} else if p.pc > 0 {
				desc = fmt.Sprintf("after record %d (%s)", p.pc-1, p.recs[p.pc-1])
			}
			stuck = append(stuck, fmt.Sprintf("rank %d blocked %s", p.rank, desc))
			if len(stuck) >= 8 {
				break
			}
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	msg := stuck[0]
	for _, x := range stuck[1:] {
		msg += "; " + x
	}
	return fmt.Errorf("replay: deadlock: %s", msg)
}

// proc is one rank's replay state machine. Completion state lives in the
// replayer's finish/done arrays (struct-of-arrays: the batch path scans
// those without touching the procs).
type proc struct {
	rank         int
	recs         []trace.Record
	ids          []int32 // the Program's transfer ids for recs
	pc           int
	tl           *timeline.Builder
	sim          *Replayer
	collIdx      int
	overheadPaid bool // the CPU overhead of recs[pc] has been charged
}

// HandleEvent resumes the rank's state machine; a proc's only event kind is
// evAdvance.
func (p *proc) HandleEvent(des.Kind) { p.advance() }

// payOverhead charges the per-message CPU overhead for the posting record
// at p.pc. It returns true when the proc must yield (the overhead occupies
// the CPU and advance resumes at the same record afterwards).
func (p *proc) payOverhead() bool {
	s := p.sim
	if s.cfg.CPUOverhead <= 0 {
		return false
	}
	if p.overheadPaid {
		p.overheadPaid = false
		return false
	}
	p.overheadPaid = true
	p.tl.Enter(s.eng.Now(), timeline.Overhead)
	s.eng.ScheduleEventAfter(s.cfg.CPUOverhead, p, evAdvance)
	return true
}

// advance executes records until the rank blocks or its trace ends.
func (p *proc) advance() {
	s := p.sim
	for p.pc < len(p.recs) {
		rec := &p.recs[p.pc]
		switch rec.Kind {
		case trace.KindBurst:
			p.pc++
			dur := s.mips.BurstDuration(rec.Instr)
			if dur <= 0 {
				continue
			}
			p.tl.Enter(s.eng.Now(), timeline.Compute)
			s.eng.ScheduleEventAfter(dur, p, evAdvance)
			return

		case trace.KindMarker:
			p.tl.Mark(s.eng.Now(), rec.Phase)
			p.pc++

		case trace.KindISend:
			if p.payOverhead() {
				return
			}
			s.postSend(p, rec)
			p.pc++

		case trace.KindSend:
			if p.payOverhead() {
				return
			}
			t := s.postSend(p, rec)
			p.pc++
			if !t.eager && !t.delivered {
				// A blocked sender resumes ahead of a receiver that blocked
				// on the transfer earlier.
				t.waiters[0], t.waiters[1] = p, t.waiters[0]
				p.tl.Enter(s.eng.Now(), timeline.SendBlocked)
				return
			}

		case trace.KindIRecv:
			if p.payOverhead() {
				return
			}
			s.postRecv(p)
			p.pc++

		case trace.KindRecv:
			if p.payOverhead() {
				return
			}
			t := s.postRecv(p)
			p.pc++
			if !t.delivered {
				t.block(p)
				p.tl.Enter(s.eng.Now(), timeline.RecvBlocked)
				return
			}

		case trace.KindWait:
			// A Wait may sit on either side of the transfer (an ISend or an
			// IRecv request); both resume at delivery.
			t := &s.xfers[p.ids[p.pc]]
			p.pc++
			if !t.delivered {
				t.block(p)
				p.tl.Enter(s.eng.Now(), timeline.WaitBlocked)
				return
			}

		case trace.KindCollective:
			p.pc++
			slot, ok := s.slots[p.collIdx]
			if !ok {
				slot = s.newSlot(p.collIdx, *rec)
				s.slots[p.collIdx] = slot
			}
			p.collIdx++
			slot.arrived++
			slot.procs = append(slot.procs, p)
			p.tl.Enter(s.eng.Now(), timeline.CollBlocked)
			if slot.arrived == s.nprocs {
				s.releaseCollective(slot)
			}
			return

		default:
			s.fail(fmt.Errorf("replay: rank %d record %d has unknown kind %v", p.rank, p.pc, rec.Kind))
			return
		}
	}
	s.done[p.rank] = true
	s.finish[p.rank] = s.eng.Now()
}

// newSlot draws a collective slot from the free list.
func (s *Replayer) newSlot(idx int, rec trace.Record) *collSlot {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots[n-1] = nil
		s.freeSlots = s.freeSlots[:n-1]
		slot.idx, slot.rec, slot.arrived = idx, rec, 0
		return slot
	}
	return &collSlot{idx: idx, rec: rec}
}

// releaseCollective charges the platform's collective cost, resumes all
// participants and recycles the slot.
func (s *Replayer) releaseCollective(slot *collSlot) {
	cost := s.cfg.CollectiveCost(slot.rec.Coll, slot.rec.Size, s.nprocs)
	s.stats.Collectives++
	delete(s.slots, slot.idx)
	for _, p := range slot.procs {
		s.eng.ScheduleEventAfter(cost, p, evAdvance)
	}
	slot.procs = slot.procs[:0]
	s.freeSlots = append(s.freeSlots, slot)
}

// postSend posts the sender half of the transfer the record at p.pc
// belongs to.
func (s *Replayer) postSend(p *proc, rec *trace.Record) *transfer {
	t := &s.xfers[p.ids[p.pc]]
	t.sim = s
	t.sendPosted = true
	t.size = rec.Size
	t.srcNode, t.dstNode = s.cfg.NodeOf(p.rank), s.cfg.NodeOf(rec.Peer)
	t.local = t.srcNode == t.dstNode
	t.eager = s.cfg.Eager(rec.Size)
	s.maybeStart(t)
	return t
}

// postRecv posts the receiver half of the transfer the record at p.pc
// belongs to.
func (s *Replayer) postRecv(p *proc) *transfer {
	t := &s.xfers[p.ids[p.pc]]
	t.recvPosted = true
	s.maybeStart(t)
	return t
}

// maybeStart checks protocol readiness and routes the transfer into the
// network: local transfers bypass resources; remote ones take their links
// and a bus, or wait for them.
//
// Arbitration is FIFO with skipping: whenever resources free up, waiting
// transfers start in post order, and one that is still blocked does not
// stall later ones. Every arbitration step leaves each waiting transfer
// blocked on at least one full resource. Posting frees nothing, so a post
// only checks the new transfer; MaxPending counts it as queued even when
// it starts at once.
func (s *Replayer) maybeStart(t *transfer) {
	if t.started {
		return
	}
	if !t.sendPosted {
		return // receive posted first; wait for the sender
	}
	if !t.eager && !t.recvPosted {
		return // rendezvous: transfer starts only once the receive exists
	}
	t.started = true
	if t.local {
		d := s.cfg.LocalLatency + s.cfg.LocalTransferTime(t.size)
		s.eng.ScheduleEventAfter(d, t, evDeliver)
		return
	}
	s.stats.MaxPending = max(s.stats.MaxPending, s.nwait+1)
	if s.resourcesFree(t.srcNode, t.dstNode) {
		s.startRemote(t)
		return
	}
	var w *waitEntry
	if n := len(s.freeW); n > 0 {
		w = s.freeW[n-1]
		s.freeW = s.freeW[:n-1]
	} else {
		w = &waitEntry{}
	}
	w.t, w.srcNode, w.dstNode, w.seq = t, t.srcNode, t.dstNode, s.postSeq
	s.postSeq++
	s.waitAll.push(w, qAll)
	s.waitOut[t.srcNode].push(w, qOut)
	s.waitIn[t.dstNode].push(w, qIn)
	s.nwait++
}

// resourcesFree reports whether a transfer from srcNode to dstNode can
// occupy its links and a bus.
func (s *Replayer) resourcesFree(srcNode, dstNode int) bool {
	c := &s.cfg
	return (c.OutLinks == 0 || s.outUse[srcNode] < c.OutLinks) &&
		(c.InLinks == 0 || s.inUse[dstNode] < c.InLinks) &&
		(c.Buses == 0 || s.busUse < c.Buses)
}

// busesFull reports whether every bus is in use.
func (s *Replayer) busesFull() bool {
	return s.cfg.Buses > 0 && s.busUse == s.cfg.Buses
}

// startWaiting takes a waiting transfer off its wait queues, recycles its
// entry and starts it.
func (s *Replayer) startWaiting(w *waitEntry) {
	s.waitAll.remove(w, qAll)
	s.waitOut[w.srcNode].remove(w, qOut)
	s.waitIn[w.dstNode].remove(w, qIn)
	s.nwait--
	s.freeW = append(s.freeW, w)
	s.startRemote(w.t)
}

// startRemote occupies resources and schedules the wire phase. Resources
// are held for the wire time; delivery happens one latency later (the
// latency models end-point overheads, not bus occupancy).
func (s *Replayer) startRemote(t *transfer) {
	s.outUse[t.srcNode]++
	s.inUse[t.dstNode]++
	s.busUse++
	wire := s.cfg.TransferTime(t.size)
	s.stats.BusTime += wire
	s.eng.ScheduleEventAfter(wire, t, evWireDone)
}

// wireDone releases the transfer's resources, schedules the delivery one
// latency later, and hands the freed resources to waiting transfers.
func (s *Replayer) wireDone(t *transfer) {
	busWasFull := s.busesFull()
	s.outUse[t.srcNode]--
	s.inUse[t.dstNode]--
	s.busUse--
	s.eng.ScheduleEventAfter(s.cfg.Latency, t, evDeliver)
	if s.nwait > 0 {
		s.arbitrate(t, busWasFull)
	}
}

// arbitrate starts the waiting transfers that the resources just released
// by freed let through, in post order. Only a transfer whose every full
// resource was among them can start. If all buses were in use, any
// waiting transfer may qualify, but at most one can start before the
// buses are full again: the earliest-posted one whose links are free.
// Otherwise every waiting transfer was blocked on a full link, so the
// candidates are those waiting for freed's output link or input link; the
// two per-node queues are walked merged in post order (a transfer on both
// is visited once).
func (s *Replayer) arbitrate(freed *transfer, busWasFull bool) {
	if busWasFull {
		for c := s.waitAll.head; c != nil; c = c.links[qAll].next {
			if s.resourcesFree(c.srcNode, c.dstNode) {
				s.startWaiting(c)
				return
			}
		}
		return
	}
	var out, in *waitEntry
	if s.cfg.OutLinks > 0 {
		out = s.waitOut[freed.srcNode].head
	}
	if s.cfg.InLinks > 0 {
		in = s.waitIn[freed.dstNode].head
	}
	for out != nil || in != nil {
		c := out
		if c == nil || (in != nil && in.seq < c.seq) {
			c = in
		}
		if c == out {
			out = out.links[qOut].next
		}
		if c == in {
			in = in.links[qIn].next
		}
		if s.resourcesFree(c.srcNode, c.dstNode) {
			s.startWaiting(c)
			if s.busesFull() {
				return
			}
		}
	}
}

// deliver completes the transfer and resumes everything blocked on it.
func (s *Replayer) deliver(t *transfer) {
	t.delivered = true
	s.stats.Transfers++
	s.stats.Bytes += t.size
	if t.local {
		s.stats.LocalTransfers++
	}
	for _, p := range t.waiters {
		if p != nil {
			p.advance()
		}
	}
}
