package htm

import (
	"fmt"
	"strings"

	"eunomia/internal/obs"
	"eunomia/internal/vclock"
)

// Stats accumulates per-thread transaction statistics. Threads own their
// Stats exclusively; harnesses merge them after a run.
type Stats struct {
	Attempts  uint64 // transaction attempts (xbegin count)
	Commits   uint64 // successful commits
	Fallbacks uint64 // executions that took the global-lock path
	Aborts    [NumAbortReasons]uint64
	// WastedCycles is virtual time spent inside attempts that aborted —
	// the paper's ">94% of CPU cycles wasted at theta=0.9" metric. It is
	// exact on the emulated backend, under Thread.Run, and whenever an
	// observer is attached. On the host backend without one, Execute reads
	// the wall clock for the first attempt of only 1 in hostClockSample
	// executions and counts that attempt hostClockSample times over, so the
	// sum is an unbiased estimate of the same quantity (in nanoseconds);
	// retries are always timed exactly.
	WastedCycles uint64
	// TxLoads and TxStores count transactional memory accesses, the proxy
	// for the paper's executed-instruction comparisons.
	TxLoads  uint64
	TxStores uint64
}

// TotalAborts sums aborts across all reasons.
func (s *Stats) TotalAborts() uint64 {
	var t uint64
	for _, v := range s.Aborts {
		t += v
	}
	return t
}

// ConflictAborts sums only the three conflict reasons.
func (s *Stats) ConflictAborts() uint64 {
	return s.Aborts[AbortConflictTrue] + s.Aborts[AbortConflictFalse] + s.Aborts[AbortConflictMeta]
}

// Merge adds o into s.
func (s *Stats) Merge(o *Stats) {
	s.Attempts += o.Attempts
	s.Commits += o.Commits
	s.Fallbacks += o.Fallbacks
	for i := range s.Aborts {
		s.Aborts[i] += o.Aborts[i]
	}
	s.WastedCycles += o.WastedCycles
	s.TxLoads += o.TxLoads
	s.TxStores += o.TxStores
}

// String renders a one-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d aborts=%d fallbacks=%d", s.Commits, s.TotalAborts(), s.Fallbacks)
	for r := AbortReason(1); r < NumAbortReasons; r++ {
		if s.Aborts[r] > 0 {
			fmt.Fprintf(&b, " %s=%d", r, s.Aborts[r])
		}
	}
	return b.String()
}

// RetryPolicy gives the per-abort-reason retry thresholds before an
// execution falls back to the global lock, mirroring the DBX policy the
// paper reuses ("we set different thresholds for different types of
// aborts").
//
// Execute normalizes the policy before it consults it: a zero threshold
// means "use the DefaultPolicy value for this reason" (the zero value of the
// whole struct is therefore DefaultPolicy, not fall-back-on-first-abort),
// and the NoRetry sentinel requests explicitly zero retries.
type RetryPolicy struct {
	Conflict int // retries allowed for conflict aborts
	Capacity int // retries allowed for capacity aborts
	Explicit int // retries allowed for explicit aborts
	// LockBusy bounds retries that abort on the held fallback lock. As in
	// simple lock-elision fallbacks, an attempt that begins while the lock
	// is held aborts and immediately retries — each failure is a real
	// abort — until this threshold sends the thread to the blocking
	// acquire. This "lemming" behavior is what lets one fallback trigger
	// an abort storm across all threads under contention, a major
	// component of the paper's collapsed baseline.
	LockBusy int
}

// NoRetry is the explicit "zero retries for this reason" threshold. A
// plain zero is normalized to the DefaultPolicy value (see normalized);
// NoRetry requests an immediate fallback on the first abort of that kind.
const NoRetry = -1

// normalized resolves the zero-value footgun: each unset (zero) threshold
// takes its DefaultPolicy value, and NoRetry (or any negative threshold)
// becomes explicitly zero retries. Execute applies this to every policy.
func (p RetryPolicy) normalized() RetryPolicy {
	norm := func(v, def int) int {
		switch {
		case v == 0:
			return def
		case v < 0:
			return 0
		default:
			return v
		}
	}
	p.Conflict = norm(p.Conflict, DefaultPolicy.Conflict)
	p.Capacity = norm(p.Capacity, DefaultPolicy.Capacity)
	p.Explicit = norm(p.Explicit, DefaultPolicy.Explicit)
	p.LockBusy = norm(p.LockBusy, DefaultPolicy.LockBusy)
	return p
}

// DefaultPolicy matches the DBX-style configuration: a small conflict-retry
// budget before taking the lock (aggressive fallback is what produces the
// serialization collapse the paper analyses).
var DefaultPolicy = RetryPolicy{Conflict: 3, Capacity: 2, Explicit: 16, LockBusy: 16}

// Thread is a per-worker handle on the HTM device. It owns a reusable Tx,
// the worker's statistics, and a deterministic RNG. A Thread must not be
// shared between goroutines.
type Thread struct {
	H     *HTM
	P     vclock.Proc
	Rand  *vclock.Rand
	Stats Stats
	tx    Tx
	// pendingAbort is set by fault injection at a non-transactional point
	// (see Thread.Fault): the next attempt aborts at begin, modeling an
	// asynchronous abort landing in the window between HTM regions.
	pendingAbort bool
	// obsNode is the tree-node annotation attached to emitted abort/commit
	// events (see NoteNode); 0 when unannotated or observability is off.
	obsNode uint64
	// devFlushed is the portion of Stats already folded into the device
	// aggregates (see flushDeviceStats); sinceFlush counts the executions
	// skipped by the host backend's batched flushing.
	devFlushed Stats
	sinceFlush int
	// execs counts Executes for the host backend's clock sampling (see
	// hostClockSample).
	execs uint32

	// Scratch belongs to the tree running on this thread: storage it keeps
	// between operations (a reusable buffer, say) so that a hot path need
	// not allocate. The htm package never reads it.
	Scratch any
}

// NewThread creates a worker handle executing on proc p.
func (h *HTM) NewThread(p vclock.Proc, seed uint64) *Thread {
	t := &Thread{H: h, P: p, Rand: vclock.NewRand(seed)}
	t.tx.h = h
	t.tx.p = p
	_, t.tx.lockstep = p.(*vclock.SimProc)
	t.tx.st = &t.Stats
	t.tx.maxRead = h.cfg.MaxReadLines
	t.tx.maxWrite = h.cfg.MaxWriteLines
	return t
}

// hostClockSample is the host backend's clock-sampling period. An attempt's
// start time has two readers, the abort accounting (Stats.WastedCycles) and
// observer events; a committed attempt with no observer needs neither, and
// on a HostProc the read is a real time.Since. So with no observer attached
// a host Execute times its first attempt 1 time in hostClockSample, at
// hostClockSample times the weight. Emulated mode reads its (free, virtual)
// clock every time, which keeps WastedCycles exact there.
const hostClockSample = 16

// Run executes body as a single transaction attempt and reports whether it
// committed, and if not, why it aborted. The body may be re-invoked by
// callers; it must be written to tolerate re-execution from the top (all
// effects inside the attempt are rolled back on abort).
func (t *Thread) Run(body func(*Tx)) (committed bool, reason AbortReason) {
	return t.attempt(body, 1)
}

// attempt is Run with the attempt's weight in Stats.WastedCycles: 1 times
// it exactly, 0 leaves it untimed (no clock read; only legal with no
// observer attached), hostClockSample is a sampled first attempt.
func (t *Thread) attempt(body func(*Tx), weight uint64) (committed bool, reason AbortReason) {
	tx := &t.tx
	tx.reset(false)
	var start uint64
	if weight != 0 {
		start = t.P.Now()
	}
	tx.rv = t.H.arena.Clock()
	t.Stats.Attempts++
	t.P.Tick(t.H.arena.Costs().TxBegin)
	if o := t.H.obs; o != nil {
		o.Event(obs.Event{
			Kind: obs.EvTxBegin,
			Proc: int32(t.P.ID()),
			TS:   start,
			Node: t.obsNode,
		})
	}

	reason = AbortNone
	var abortLine uint64
	func() {
		defer func() {
			if r := recover(); r != nil {
				ab, ok := r.(*txAbort)
				if !ok {
					panic(r)
				}
				reason = ab.reason
				abortLine = ab.line
			}
		}()
		if t.pendingAbort {
			t.pendingAbort = false
			tx.abort(AbortExplicit, 0, faultAbortCode)
		}
		// Subscribe to the fallback lock: reading it into the read set
		// guarantees this attempt cannot commit concurrently with a
		// lock-holder (lock elision).
		if tx.Load(t.H.fallback) != 0 {
			tx.abort(AbortFallbackLock, t.H.fallback.Line(), 0)
		}
		body(tx)
		tx.commit()
	}()

	if reason == AbortNone {
		t.Stats.Commits++
		if o := t.H.obs; o != nil {
			now := t.P.Now()
			o.Event(obs.Event{
				Kind: obs.EvTxCommit,
				Proc: int32(t.P.ID()),
				TS:   now,
				Dur:  now - start,
				Node: t.obsNode,
			})
		}
		return true, AbortNone
	}
	t.Stats.Aborts[reason]++
	if weight != 0 {
		t.Stats.WastedCycles += weight * (t.P.Now() - start)
	}
	for _, al := range tx.allocs {
		t.H.arena.Free(t.P, al.addr, al.words, al.tag)
	}
	t.P.Tick(t.H.arena.Costs().TxAbort)
	if o := t.H.obs; o != nil {
		now := t.P.Now()
		var tag uint8
		if reason.IsConflict() || reason == AbortFallbackLock || reason == AbortCapacity {
			tag = uint8(t.H.arena.TagOf(abortLine))
		}
		o.Event(obs.Event{
			Kind:   obs.EvTxAbort,
			Reason: uint8(reason),
			Tag:    tag,
			Proc:   int32(t.P.ID()),
			TS:     now,
			Dur:    now - start,
			Line:   abortLine,
			Node:   t.obsNode,
		})
	}
	return false, reason
}

// Execute runs body transactionally with retries per the policy and falls
// back to the global lock when a threshold is exceeded. The body observes
// identical semantics on both paths (in fallback mode its Tx routes
// operations directly to memory under the lock).
//
// The policy is normalized (zero thresholds take DefaultPolicy values,
// NoRetry means zero retries) after the first abort, which is the first
// point that reads a threshold.
func (t *Thread) Execute(pol RetryPolicy, body func(*Tx)) {
	defer t.maybeFlushDeviceStats()
	if fi := t.H.fi; fi != nil && fi.at(FaultFallback) {
		switch fi.spec.Action {
		case ActFallback:
			t.RunFallback(body)
			return
		case ActYield:
			t.P.Spin(yieldCost)
		case ActAbort:
			t.pendingAbort = true
		}
	}
	weight := uint64(1)
	if t.H.host && t.H.obs == nil {
		weight = 0
		if t.execs++; t.execs%hostClockSample == 0 {
			weight = hostClockSample
		}
	}
	conflicts, caps, expl, busy := 0, 0, 0, 0
	for first := true; ; first = false {
		ok, reason := t.attempt(body, weight)
		if ok {
			return
		}
		if first {
			pol = pol.normalized()
			weight = 1
		}
		switch {
		case reason == AbortFallbackLock:
			busy++
			if busy > pol.LockBusy {
				t.RunFallback(body)
				return
			}
			if t.H.cfg.LemmingWait {
				// Lemming mitigation: wait for the lock holder to finish
				// instead of burning more aborts against the held lock.
				t.awaitFallbackClear()
			} else {
				t.P.Spin(t.H.arena.Costs().SpinIter)
			}
		case reason.IsConflict():
			conflicts++
			if conflicts > pol.Conflict {
				t.RunFallback(body)
				return
			}
			// DBX retries essentially immediately; a token pause avoids a
			// zero-length livelock in virtual time. (No exponential
			// backoff — its absence is part of why contended HTM trees
			// convoy and collapse, which is the behavior under study.)
			t.P.Spin(t.H.arena.Costs().SpinIter)
		case reason == AbortCapacity:
			caps++
			if caps > pol.Capacity {
				t.RunFallback(body)
				return
			}
		default: // AbortExplicit
			expl++
			if expl > pol.Explicit {
				t.RunFallback(body)
				return
			}
		}
	}
}

// awaitFallbackClear spins until the fallback lock word reads free.
func (t *Thread) awaitFallbackClear() {
	a := t.H.arena
	for a.LoadWord(t.P, t.H.fallback) != 0 {
		t.P.Spin(a.Costs().SpinIter)
	}
}

// RunFallback acquires the global fallback lock and executes body
// non-transactionally. All concurrent transactions abort (they subscribed
// to the lock word), so the execution is mutually exclusive with every
// transactional and fallback execution on this HTM device.
//
// The acquisition is the paper-faithful test-and-test-and-set spin. The lock
// is released via defer, so a panicking body (or an injected fault) cannot
// wedge the device.
func (t *Thread) RunFallback(body func(*Tx)) {
	defer t.maybeFlushDeviceStats()
	a := t.H.arena
	start := t.P.Now()
	for !a.CASWordDirect(t.P, t.H.fallback, 0, 1) {
		t.awaitFallbackClear()
	}
	t.Stats.Fallbacks++
	defer a.StoreWordDirect(t.P, t.H.fallback, 0)
	tx := &t.tx
	tx.reset(true)
	body(tx)
	if o := t.H.obs; o != nil {
		now := t.P.Now()
		o.Event(obs.Event{
			Kind: obs.EvFallback,
			Proc: int32(t.P.ID()),
			TS:   now,
			Dur:  now - start,
			Node: t.obsNode,
		})
	}
}
