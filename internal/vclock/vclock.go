// Package vclock provides the execution substrate the rest of the
// reproduction runs on: virtual threads ("procs") that charge cycle costs
// for every memory and synchronization operation they perform.
//
// Two implementations of the Proc interface exist:
//
//   - Sim: a deterministic, discrete-event multicore simulator. N virtual
//     cores run as goroutines in strict lockstep; a scheduler always resumes
//     the core with the smallest local cycle clock (ties broken by core id),
//     so every run with the same seed is bit-for-bit reproducible and
//     "throughput versus thread count" is meaningful even on a single-core
//     host. This stands in for the paper's 20-core Xeon E5-2650.
//
//   - Wall: plain goroutines with an optional cooperative yield every few
//     charged cycles, used by the testing.B benchmarks where host wall-clock
//     time is the metric.
//
// All memory traffic in internal/simmem and all transaction bookkeeping in
// internal/htm is charged through Proc.Tick using the CostModel below, so
// instruction-count arguments from the paper (for example "Masstree executes
// 2.1x the instructions of Euno-B+Tree at theta=0.5") surface directly in
// virtual time.
package vclock

// Proc is one virtual thread of execution. Every operation that would cost
// CPU cycles on real hardware must be charged through Tick; in simulated
// mode Tick is also the only scheduling point, so any spin loop that fails
// to charge its iterations (through Spin) would deadlock the simulation.
type Proc interface {
	// ID returns the virtual core number, in [0, nprocs).
	ID() int
	// Tick charges the given number of cycles to this proc's local clock
	// and may transfer control to another proc.
	Tick(cycles uint64)
	// Spin charges one failed iteration of a loop that waits on another
	// proc (a held lock, an unpublished result). In virtual time it is
	// Tick; at native speed, where Tick is free, it is the one place a
	// proc yields the OS thread.
	Spin(cycles uint64)
	// Now returns the proc's local cycle clock.
	Now() uint64
}

// CostModel holds the cycle costs charged for the primitive operations of
// the memory and HTM substrates. The defaults approximate L1-resident
// behavior on the paper's 2.3 GHz Haswell-class parts; they are knobs, not
// measurements, and only relative magnitudes matter for shape fidelity.
type CostModel struct {
	// Load and Store are the costs of a cache-hitting access; Miss is the
	// penalty when the line is not in the accessing core's simulated
	// private cache (see simmem's per-proc cache with version-based
	// invalidation). Because a write by any other core invalidates a
	// cached line, contended lines miss on nearly every access — exactly
	// the coherence behavior that stretches transactions (and therefore
	// widens conflict windows) on real multi-socket hardware.
	Load  uint64
	Store uint64
	Miss  uint64
	// MissPipelined is the marginal cost of the 2nd..Nth miss in a burst
	// of *independent* loads (memory-level parallelism): probing several
	// leaf segments overlaps in the memory pipeline, while the dependent
	// probes of a binary search or a pointer chase each pay full Miss.
	MissPipelined uint64
	CAS           uint64 // atomic compare-and-swap (locked instruction)
	TxBegin       uint64 // xbegin: checkpoint registers, enter speculation
	TxCommitPer   uint64 // commit cost per write-set line
	TxCommit      uint64 // fixed xend cost
	TxAbort       uint64 // abort: discard speculative state, restore checkpoint
	SpinIter      uint64 // one failed iteration of a spin loop
	Fence         uint64 // ordering/bookkeeping around an optimistic version check
	// NodeWork is the per-node structural instruction budget of the
	// fine-grained Masstree comparator (permutation decode, border-key
	// checks, key-slice dispatch) that our uint64-key simplification would
	// otherwise omit. It is calibrated against the paper's measurement
	// that Masstree executes ~2.1x the instructions of Euno-B+Tree per
	// operation (Section 5.2).
	NodeWork uint64
	Compute  uint64 // generic bookkeeping instruction
}

// DefaultCosts is the cost model used by all experiments unless overridden.
// Miss approximates a blend of L3 hits and cross-socket/DRAM accesses on
// the paper's two-socket Xeon.
var DefaultCosts = CostModel{
	Load:          4,
	Store:         4,
	Miss:          150,
	MissPipelined: 25,
	CAS:           40,
	TxBegin:       40,
	TxCommitPer:   10,
	TxCommit:      30,
	TxAbort:       150,
	SpinIter:      15,
	Fence:         12,
	NodeWork:      60,
	Compute:       1,
}

// CyclesPerSecond converts virtual cycles to seconds at the paper's clock
// rate (2.30 GHz Intel Xeon E5-2650 v3).
const CyclesPerSecond = 2_300_000_000
