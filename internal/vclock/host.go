package vclock

import (
	"runtime"
	"time"
)

// hostEpoch anchors HostProc.Now: clocks are nanoseconds since process
// start, so durations fit comfortably in uint64 and early timestamps stay
// small. time.Since uses the monotonic clock, so Now never goes backwards.
var hostEpoch = time.Now()

// hostYieldCycles is the spin-yield bound: how many charged cycles of
// failed waiting a HostProc accumulates in Spin before it yields the OS
// thread — about a thousand iterations at the cost model's SpinIter. A
// waiter's condition flips only when another goroutine gets to run, so with
// more goroutines than cores every wait loop needs a scheduling point or the
// spinners starve the lock holder; the loops that wait (line-lock spins, the
// CCM advisory locks, the fallback-lock waits) all charge their failed
// iterations through Spin, which gives them that point without a
// host-specific branch at any site.
const hostYieldCycles = 1 << 14

// HostProc is a Proc for native-speed execution on the host backend: Tick
// charges nothing (wall time is the only clock), and Now returns real
// nanoseconds. With a HostProc, "cycles" in Stats (WastedCycles, latency
// histograms) are nanoseconds.
type HostProc struct {
	id     int
	acc    uint64 // cycles spun since the last yield
	yields uint64 // scheduler entries, for the package's tests
}

// NewHostProc creates a native-speed proc. IDs only label threads (they are
// not bounded by the emulator's cache-model proc limit, which the host
// backend bypasses).
func NewHostProc(id int) *HostProc { return &HostProc{id: id} }

// ID implements Proc.
func (p *HostProc) ID() int { return p.id }

// Now implements Proc: nanoseconds of wall-clock time since process start.
func (p *HostProc) Now() uint64 { return uint64(time.Since(hostEpoch)) }

// Tick implements Proc. Work that is waiting for nobody costs nothing and
// never enters the scheduler.
func (p *HostProc) Tick(cycles uint64) {}

// Spin implements Proc: it yields the OS thread once per hostYieldCycles
// cycles of waiting, so a charge of at least that much is a yield outright.
func (p *HostProc) Spin(cycles uint64) {
	p.acc += cycles
	if p.acc >= hostYieldCycles {
		p.acc = 0
		p.yields++
		runtime.Gosched()
	}
}
