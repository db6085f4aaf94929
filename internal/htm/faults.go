package htm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"eunomia/internal/vclock"
)

// FaultPoint names an instrumented location in a tree's concurrency
// protocol. Trees call Thread.Fault / Tx.Fault at these points; with no
// injector installed the calls are near-free no-ops, so the hooks stay in
// production code paths.
type FaultPoint uint8

// The named points. They cover the windows where split-HTM-region protocols
// concentrate their bugs: the stitch between the upper and lower regions,
// structural modification mid-flight, CCM bookkeeping done outside any
// transaction, and the fallback path itself.
const (
	FaultNone FaultPoint = iota
	// FaultStitch fires in the non-transactional window between a
	// split-region operation's upper region (descend + seqno sample) and
	// its lower region (leaf operation). Anything the protocol survives
	// here — splits, compactions, deletes by other threads — it survives
	// only by virtue of seqno re-validation.
	FaultStitch
	// FaultMidSplit fires inside a structural modification, immediately
	// before a leaf split rewrites the tree (still inside the transaction,
	// so an abort here discards a half-done split).
	FaultMidSplit
	// FaultCCM fires around conflict-control-module updates: advisory
	// lock-bit acquisition and counting-mark increments/decrements, which
	// run outside the HTM regions.
	FaultCCM
	// FaultFallback fires at Thread.Execute entry and can force the
	// execution straight onto the global-lock fallback path.
	FaultFallback
	NumFaultPoints
)

// String returns the spec-syntax name of the point.
func (p FaultPoint) String() string {
	switch p {
	case FaultNone:
		return "none"
	case FaultStitch:
		return "stitch"
	case FaultMidSplit:
		return "midsplit"
	case FaultCCM:
		return "ccm"
	case FaultFallback:
		return "fallback"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// FaultAction is what happens when an armed point fires.
type FaultAction uint8

const (
	// ActYield charges a large virtual-time tick, handing the lockstep
	// schedule to every other virtual core before this one proceeds — it
	// stretches the window at the point so concurrent structural changes
	// land inside it.
	ActYield FaultAction = iota
	// ActAbort aborts the transaction attempt. At a transactional point it
	// is an explicit abort of the running attempt; at a non-transactional
	// point (stitch, CCM) it poisons the thread so its next attempt aborts
	// at begin. In fallback (direct) mode it is a no-op, mirroring RTM,
	// where the non-speculative path cannot abort.
	ActAbort
	// ActFallback forces the next Thread.Execute to skip the transactional
	// attempts entirely and take the global lock. Only honored at
	// FaultFallback.
	ActFallback
)

// String returns the spec-syntax name of the action.
func (a FaultAction) String() string {
	switch a {
	case ActYield:
		return "yield"
	case ActAbort:
		return "abort"
	case ActFallback:
		return "fallback"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// FaultSpec arms one point with one action. The zero value is "none" (never
// fires, but visit counters still run when an injector is installed).
type FaultSpec struct {
	Point  FaultPoint
	Action FaultAction
	// Nth fires the action on every Nth visit to the point (1 = every
	// visit). 0 is normalized to 1.
	Nth uint64
}

// String renders the spec in the parseable "point:action:nth" syntax used
// by repro lines.
func (s FaultSpec) String() string {
	if s.Point == FaultNone {
		return "none"
	}
	n := s.Nth
	if n == 0 {
		n = 1
	}
	return fmt.Sprintf("%s:%s:%d", s.Point, s.Action, n)
}

// ParseFaultSpec parses "none" or "point:action:nth" (nth optional).
func ParseFaultSpec(text string) (FaultSpec, error) {
	if text == "" || text == "none" {
		return FaultSpec{}, nil
	}
	parts := strings.Split(text, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return FaultSpec{}, fmt.Errorf("htm: fault spec %q: want point:action[:nth]", text)
	}
	var s FaultSpec
	switch parts[0] {
	case "stitch":
		s.Point = FaultStitch
	case "midsplit":
		s.Point = FaultMidSplit
	case "ccm":
		s.Point = FaultCCM
	case "fallback":
		s.Point = FaultFallback
	default:
		return FaultSpec{}, fmt.Errorf("htm: unknown fault point %q", parts[0])
	}
	switch parts[1] {
	case "yield":
		s.Action = ActYield
	case "abort":
		s.Action = ActAbort
	case "fallback":
		s.Action = ActFallback
	default:
		return FaultSpec{}, fmt.Errorf("htm: unknown fault action %q", parts[1])
	}
	s.Nth = 1
	if len(parts) == 3 {
		n, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil || n == 0 {
			return FaultSpec{}, fmt.Errorf("htm: bad fault nth %q", parts[2])
		}
		s.Nth = n
	}
	return s, nil
}

// yieldCost is the virtual-time charge of ActYield: far larger than any
// slack or single-operation cost, so every other runnable core executes
// past the yielding one before it resumes.
const yieldCost = 200_000

// FaultInjector arms a device with one FaultSpec and counts, per point, how
// often the point was visited and how often the action fired. Counters are
// mutex-guarded: under the lockstep simulator only one goroutine runs at a
// time, so counts (and therefore firing decisions) are fully deterministic;
// under wall-clock runs they are merely atomic.
type FaultInjector struct {
	mu     sync.Mutex
	spec   FaultSpec
	visits [NumFaultPoints]uint64
	hits   [NumFaultPoints]uint64
}

// NewFaultInjector arms spec (normalizing Nth=0 to 1).
func NewFaultInjector(spec FaultSpec) *FaultInjector {
	if spec.Nth == 0 {
		spec.Nth = 1
	}
	return &FaultInjector{spec: spec}
}

// Spec returns the armed spec.
func (fi *FaultInjector) Spec() FaultSpec { return fi.spec }

// Visits returns how many times point was reached.
func (fi *FaultInjector) Visits(p FaultPoint) uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.visits[p]
}

// Hits returns how many times the armed action fired at point.
func (fi *FaultInjector) Hits(p FaultPoint) uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.hits[p]
}

// at counts a visit to p and reports whether the armed action fires.
func (fi *FaultInjector) at(p FaultPoint) bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.visits[p]++
	if fi.spec.Point != p {
		return false
	}
	if fi.visits[p]%fi.spec.Nth != 0 {
		return false
	}
	fi.hits[p]++
	return true
}

// SetFaultInjector installs (or, with nil, removes) the device's injector.
// Install before starting workers; the field is read without synchronization
// on every instrumented point.
func (h *HTM) SetFaultInjector(fi *FaultInjector) { h.fi = fi }

// Injector returns the installed injector, or nil.
func (h *HTM) Injector() *FaultInjector { return h.fi }

// Fault marks a transactional fault point. Inside an attempt, ActAbort
// unwinds it as an explicit abort; in direct (fallback) mode the abort is
// skipped. ActYield stretches the schedule window in either mode.
func (tx *Tx) Fault(p FaultPoint) {
	fi := tx.h.fi
	if fi == nil || !fi.at(p) {
		return
	}
	switch fi.spec.Action {
	case ActYield:
		tx.p.Spin(yieldCost)
	case ActAbort:
		if !tx.direct {
			tx.abort(AbortExplicit, 0, faultAbortCode)
		}
	}
}

// Fault marks a non-transactional fault point (between HTM regions, around
// CCM updates). ActYield stretches the window; ActAbort poisons the thread
// so its next transactional attempt aborts at begin — the emulator's
// analogue of an asynchronous event (interrupt, capacity eviction) landing
// in the gap and killing the upcoming transaction.
func (t *Thread) Fault(p FaultPoint) {
	fi := t.H.fi
	if fi == nil || !fi.at(p) {
		return
	}
	switch fi.spec.Action {
	case ActYield:
		t.P.Spin(yieldCost)
	case ActAbort:
		t.pendingAbort = true
	}
}

// FaultProc marks a fault point for code running outside any Thread or Tx
// (e.g. a lock-based tree's direct-mode structural modification). Only
// ActYield can fire here — there is no transaction to abort and no Execute
// to redirect — but visits are still counted.
func (h *HTM) FaultProc(p vclock.Proc, pt FaultPoint) {
	fi := h.fi
	if fi == nil || !fi.at(pt) {
		return
	}
	if fi.spec.Action == ActYield {
		p.Spin(yieldCost)
	}
}

// faultAbortCode is the xabort code carried by injected explicit aborts.
const faultAbortCode = 0xFA
