// Package machine describes the configurable target platform the replayer
// simulates — the "configurable parallel platform" of the paper's Dimemas
// stage.
//
// The model follows the published Dimemas abstract architecture: a cluster
// of SMP nodes, each with a fixed number of ranks, one input and one output
// link per node, and a set of shared buses interconnecting the nodes. A
// point-to-point transfer costs a latency plus size/bandwidth of wire time,
// during which it holds the sender's output link, the receiver's input link
// and one bus. Messages above the eager threshold use a rendezvous protocol
// that synchronizes the sender with the posted receive.
package machine

import (
	"fmt"
	"math"

	"overlapsim/internal/units"
)

// CollectiveModel selects the cost formula family for global operations.
type CollectiveModel uint8

// Collective cost families.
const (
	// CollLog models tree-based collectives: ceil(log2 P) stages.
	CollLog CollectiveModel = iota
	// CollLinear models sequential collectives: P-1 stages.
	CollLinear
)

// ParseCollectiveModel parses a collective cost-model name as printed by
// CollectiveModel.String: "log" or "linear".
func ParseCollectiveModel(s string) (CollectiveModel, error) {
	switch s {
	case "log":
		return CollLog, nil
	case "linear":
		return CollLinear, nil
	default:
		return 0, fmt.Errorf("machine: unknown collective model %q (want log or linear)", s)
	}
}

// Valid reports whether the value names a known collective model.
func (m CollectiveModel) Valid() bool { return m == CollLog || m == CollLinear }

// String names the model.
func (m CollectiveModel) String() string {
	switch m {
	case CollLog:
		return "log"
	case CollLinear:
		return "linear"
	default:
		return fmt.Sprintf("collmodel(%d)", uint8(m))
	}
}

// Config is a full platform description. The zero value is not valid; start
// from Default() and adjust.
type Config struct {
	Name string

	// Nodes is the number of SMP nodes; RanksPerNode processes run on each.
	// Nodes*RanksPerNode must cover the traced rank count.
	Nodes        int
	RanksPerNode int

	// MIPS is the relative CPU speed used to turn instruction counts into
	// time. Zero means "use the MIPS recorded in the trace".
	MIPS units.MIPS

	// Latency is the end-to-end message startup cost for remote transfers.
	// It is network-side and can be hidden by overlap.
	Latency units.Duration

	// CPUOverhead is the processor time spent initiating each
	// point-to-point operation (posting a send or a receive). Unlike
	// Latency it occupies the CPU, cannot be overlapped away, and is paid
	// once per partial message — the cost that bounds how finely messages
	// can usefully be chunked. The default is 0 because the paper's time
	// model deliberately ignores MPI routine overhead (section II-B); the
	// A2/A3 ablations set it explicitly to study the granularity tradeoff.
	CPUOverhead units.Duration

	// Bandwidth is the per-transfer wire speed for remote transfers.
	// Bandwidth 0 means infinitely fast (zero transfer time).
	Bandwidth units.Bandwidth

	// Buses is the number of network buses shared by all nodes; at most
	// Buses remote transfers progress simultaneously. 0 disables contention,
	// matching the Dimemas convention.
	Buses int

	// InLinks and OutLinks are the per-node link counts. 0 means unlimited.
	InLinks  int
	OutLinks int

	// EagerThreshold is the largest message sent eagerly (buffered, sender
	// does not synchronize). Larger messages use rendezvous. 0 makes every
	// message rendezvous; a negative value makes every message eager.
	EagerThreshold units.Bytes

	// LocalLatency and LocalBandwidth apply to transfers between ranks on
	// the same node; such transfers bypass links and buses. LocalBandwidth 0
	// means infinitely fast.
	LocalLatency   units.Duration
	LocalBandwidth units.Bandwidth

	// Collectives selects the cost-formula family for global operations.
	Collectives CollectiveModel
}

// Default returns the baseline platform used throughout the experiments:
// one rank per node (pure distributed memory), 1000 MIPS cores, 10 us
// latency, 256 MB/s network with 8 buses, 32 KB eager threshold.
func Default() Config {
	return Config{
		Name:           "default",
		Nodes:          64,
		RanksPerNode:   1,
		MIPS:           1000,
		Latency:        10 * units.Microsecond,
		CPUOverhead:    0,
		Bandwidth:      256 * units.MBPerSec,
		Buses:          8,
		InLinks:        1,
		OutLinks:       1,
		EagerThreshold: 32 * units.KB,
		LocalLatency:   1 * units.Microsecond,
		LocalBandwidth: 0,
		Collectives:    CollLog,
	}
}

// Ideal returns a contention-free, zero-latency, infinite-bandwidth network;
// useful for isolating computation time.
func Ideal() Config {
	c := Default()
	c.Name = "ideal"
	c.Latency = 0
	c.CPUOverhead = 0
	c.Bandwidth = 0
	c.Buses = 0
	c.InLinks = 0
	c.OutLinks = 0
	c.EagerThreshold = -1
	return c
}

// WithBandwidth returns a copy with the given remote bandwidth; the name is
// annotated for experiment tables.
func (c Config) WithBandwidth(bw units.Bandwidth) Config {
	c.Bandwidth = bw
	c.Name = fmt.Sprintf("%s@%s", baseName(c.Name), bw)
	return c
}

// WithLatency returns a copy with the given remote latency.
func (c Config) WithLatency(l units.Duration) Config {
	c.Latency = l
	return c
}

// WithBuses returns a copy with the given bus count.
func (c Config) WithBuses(n int) Config {
	c.Buses = n
	return c
}

// WithNodes returns a copy sized to host at least nranks ranks with the
// configured RanksPerNode.
func (c Config) WithNodes(nranks int) Config {
	rpn := c.RanksPerNode
	if rpn <= 0 {
		rpn = 1
	}
	c.Nodes = (nranks + rpn - 1) / rpn
	return c
}

func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '@' {
			return name[:i]
		}
	}
	return name
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("machine: %q: Nodes must be positive, got %d", c.Name, c.Nodes)
	case c.RanksPerNode <= 0:
		return fmt.Errorf("machine: %q: RanksPerNode must be positive, got %d", c.Name, c.RanksPerNode)
	case c.MIPS < 0:
		return fmt.Errorf("machine: %q: MIPS must be non-negative, got %v", c.Name, float64(c.MIPS))
	case c.Latency < 0:
		return fmt.Errorf("machine: %q: Latency must be non-negative, got %v", c.Name, c.Latency)
	case c.CPUOverhead < 0:
		return fmt.Errorf("machine: %q: CPUOverhead must be non-negative, got %v", c.Name, c.CPUOverhead)
	case c.Bandwidth < 0:
		return fmt.Errorf("machine: %q: Bandwidth must be non-negative, got %v", c.Name, float64(c.Bandwidth))
	case c.Buses < 0:
		return fmt.Errorf("machine: %q: Buses must be non-negative, got %d", c.Name, c.Buses)
	case c.InLinks < 0 || c.OutLinks < 0:
		return fmt.Errorf("machine: %q: link counts must be non-negative", c.Name)
	case c.LocalLatency < 0:
		return fmt.Errorf("machine: %q: LocalLatency must be non-negative", c.Name)
	case c.LocalBandwidth < 0:
		return fmt.Errorf("machine: %q: LocalBandwidth must be non-negative", c.Name)
	}
	return nil
}

// Capacity returns the number of ranks the platform can host.
func (c Config) Capacity() int { return c.Nodes * c.RanksPerNode }

// NodeOf returns the node hosting the given rank (block placement, as in
// Dimemas: ranks 0..RanksPerNode-1 on node 0, and so on).
//
// NodeOf and the other per-message queries below take a pointer receiver:
// the replay calls them once per transfer, and a value receiver would copy
// the whole Config on every call.
func (c *Config) NodeOf(rank int) int {
	if c.RanksPerNode <= 0 {
		return rank
	}
	return rank / c.RanksPerNode
}

// SameNode reports whether two ranks share a node.
func (c *Config) SameNode(a, b int) bool { return c.NodeOf(a) == c.NodeOf(b) }

// Eager reports whether a message of the given size uses the eager
// protocol on this platform.
func (c *Config) Eager(size units.Bytes) bool {
	if c.EagerThreshold < 0 {
		return true
	}
	return size <= c.EagerThreshold
}

// TransferTime returns the wire time (excluding latency and queueing) for a
// remote transfer of the given size.
func (c *Config) TransferTime(size units.Bytes) units.Duration {
	return c.Bandwidth.TransferTime(size)
}

// LocalTransferTime returns the wire time for an intra-node transfer.
func (c *Config) LocalTransferTime(size units.Bytes) units.Duration {
	return c.LocalBandwidth.TransferTime(size)
}

// CollectiveCost returns the modeled duration of a collective with the
// given per-rank payload across nranks processes, once all ranks have
// arrived. The formulas are the standard Dimemas-style tree/linear models:
//
//	stages(log)    = ceil(log2 P)
//	stages(linear) = P - 1
//	barrier        = stages * latency
//	bcast/reduce   = stages * (latency + size/BW)
//	allreduce      = 2 * reduce                (reduce + bcast)
//	allgather      = stages * (latency + size/BW) with size growing is
//	                 approximated by stages * (latency + size/BW)
//	alltoall       = (P-1) * (latency + size/BW) regardless of family
func (c Config) CollectiveCost(op interface{ String() string }, size units.Bytes, nranks int) units.Duration {
	if nranks <= 1 {
		return 0
	}
	var stages int
	switch c.Collectives {
	case CollLinear:
		stages = nranks - 1
	default:
		stages = int(math.Ceil(math.Log2(float64(nranks))))
	}
	perStage := c.Latency + c.TransferTime(size)
	switch op.String() {
	case "barrier":
		return units.Duration(stages) * c.Latency
	case "bcast", "reduce", "allgather":
		return units.Duration(stages) * perStage
	case "allreduce":
		return 2 * units.Duration(stages) * perStage
	case "alltoall":
		return units.Duration(nranks-1) * perStage
	default:
		return units.Duration(stages) * perStage
	}
}

// String gives a compact one-line description for logs and tables.
func (c Config) String() string {
	return fmt.Sprintf("%s: %d nodes x %d ranks, %v, L=%v, BW=%v, buses=%d, eager<=%v",
		c.Name, c.Nodes, c.RanksPerNode, c.MIPS, c.Latency, c.Bandwidth, c.Buses, c.EagerThreshold)
}
