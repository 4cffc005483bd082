// Package replay reconstructs an application's time behaviour from its
// traces on a configurable parallel platform — the role Dimemas plays in
// the paper's environment, and the consumer end of the trace → variant →
// replay pipeline: the tracer produces one original trace, the overlap
// package derives potential (overlapped) variants from it, and this
// package turns each variant into simulated time on a chosen machine.
//
// The simulator is a deterministic discrete-event replayer built on the
// des engine. Every rank is a state machine walking its trace: computation
// bursts occupy the CPU for instructions/MIPS, point-to-point records post
// transfers into a network model with per-node input/output links and a
// shared set of buses, and collectives synchronize all ranks and apply the
// platform's cost formula. Messages at or below the eager threshold leave
// the sender without synchronization; larger ones use a rendezvous that
// couples the sender to the posted receive. The output is a per-rank state
// timeline plus network statistics, ready for the visualization stage.
//
// # Network arbitration
//
// Remote transfers wait for their links and a bus in FIFO-with-skip order:
// when resources free up, waiting transfers start in post order and a
// blocked one never stalls a later one that can go. Each waiting transfer
// is threaded through three intrusive wait queues (all waiting transfers
// in post order, per source node, per destination node), so a post checks
// only the new transfer and a release walks only the transfers it could
// let through. docs/ARCHITECTURE.md ("Network arbitration") gives the
// invariant this rests on.
//
// # Compiled programs
//
// Work that depends only on the trace set is done once, by Compile: it
// validates the set and pairs its messages statically, giving every
// point-to-point record the dense id of its transfer and every Wait the
// id of the transfer its request posted. Matching is FIFO per directed
// channel (src, dst, tag) and one rank posts each side of a channel in
// record order, so the k-th send always meets the k-th receive and the
// pairing holds on every platform. The holder of a trace set owns its
// Program and replays it on as many platforms as it likes; the package-
// level Simulate and SimulateBatch compile on every call and suit one-shot
// callers.
//
// # Allocation-free hot path
//
// Replay throughput bounds sweep scale — every grid point, shard and
// memoized-miss replays — so the event loop performs no steady-state heap
// allocation. Ranks and transfers implement des.Target and are driven by
// typed events (advance, wire-done, deliver) instead of closures, and all
// per-run scratch is owned and recycled by a Replayer: the DES engine and
// its queue, rank state machines with their timeline builders, the
// transfer arena, wait entries and collective slots. Transfers live in
// the arena at their Program ids and the arena is zeroed at reset, so a
// transfer nobody waits on (an overlapped trace's chunk ISends) costs
// nothing to reclaim.
//
// A warm Replayer therefore allocates only the result snapshot a Simulate
// call hands back: one block holding the Result and its timeline set, the
// lines slice, and two arenas all ranks' intervals and events are carved
// from (sized up front via timeline.Builder.SnapshotBound, so the count
// is independent of rank count). TestReplaySteadyStateAllocs pins that
// budget (4 allocations for the 4-rank guard workload), and
// TestSummarySteadyStateAllocs pins 0 for the summary path. The Program
// methods draw replayers from an internal pool so every caller — the
// sweep runner's workers included — reuses warm scratch automatically.
//
// # One sequential event loop
//
// Every replay runs through one sequential event loop; throughput across
// platforms comes from the sweep layer, which runs independent points in
// parallel and batches a workload's platform axis through one warm
// Replayer (SimulateBatch), not from splitting a single replay.
//
// Determinism matters beyond reproducibility: a replay is a pure function
// of (trace set, machine configuration), which is what lets the sweep
// layer memoize replay results by (workload, variant, platform) and lets
// sharded sweep campaigns promise byte-identical merged output. The
// recycling layer preserves this bit-for-bit: pooled objects are fully
// re-zeroed, so a reused replayer's output is indistinguishable from a
// cold one's.
package replay
