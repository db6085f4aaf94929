package htm

import "eunomia/internal/vclock"

// Backend once selected a device-wide execution engine.
//
// Deprecated: no effect. A thread's proc decides how it runs (see
// vclock.IsHost): a thread on a vclock.HostProc runs the protocol at
// native speed, outside the cost model, with its statistics batched and
// its clock sampled; a thread on a proc that keeps virtual time is charged
// for every access and counted exactly. Every device runs both kinds.
type Backend int

// Deprecated: no effect; see Backend.
const (
	BackendEmulated Backend = iota
	BackendHost
)

// NewHostThread creates a worker handle for a real goroutine, on a fresh
// vclock.HostProc. id only labels the thread.
func (h *HTM) NewHostThread(id int, seed uint64) *Thread {
	return h.NewThread(vclock.NewHostProc(id), seed)
}
