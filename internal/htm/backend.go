package htm

import (
	"fmt"

	"eunomia/internal/vclock"
)

// Backend selects the execution engine behind the transactional API. Both
// backends run the *same* TL2-style protocol over the same per-line
// version/lock metadata — the concurrency control in this package is real
// either way (the arena is atomics, commits CAS line locks, wall-clock
// tests race real goroutines through it even in emulated mode). What the
// backend changes is the clock:
//
//   - BackendEmulated charges every memory access and transaction event
//     through the virtual-time cost model, so contention plays out in
//     deterministic simulated cycles (the mode all paper figures use).
//
//   - BackendHost turns the cost model off and measures nothing but wall
//     time: threads are plain goroutines on vclock.HostProc, loads and
//     stores are bare sync/atomic word operations, and the waits (the
//     retry pause, the lemming wait, the fallback spin) yield
//     cooperatively through Proc.Spin. This is the engine for real
//     multi-core throughput numbers (`make benchmark`).
type Backend int

// The two execution engines.
const (
	BackendEmulated Backend = iota
	BackendHost
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendEmulated:
		return "emulated"
	case BackendHost:
		return "host"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Host reports whether the device runs on the host backend.
func (h *HTM) Host() bool { return h.host }

// NewHostThread creates a worker handle on a fresh native-speed proc. It is
// the host-backend counterpart of NewThread(vclock.NewWallProc(...), seed);
// id only labels the thread (host proc IDs are unbounded).
func (h *HTM) NewHostThread(id int, seed uint64) *Thread {
	return h.NewThread(vclock.NewHostProc(id), seed)
}
