package htm

import (
	"sync/atomic"

	"eunomia/internal/obs"
	"eunomia/internal/simmem"
)

// This file wires the device into the observability layer (internal/obs):
// event emission from the transaction lifecycle and the device-wide
// aggregated statistics behind DB.Metrics.
//
// Emission follows the fault-injector pattern: every site is guarded by
// one nil check on HTM.obs, so an un-instrumented device pays a single
// predictable branch. Observer callbacks never Tick the proc — attaching
// an observer cannot move a virtual-time run by a cycle.

func init() {
	obs.SetReasonNames(func(ord uint8) string { return AbortReason(ord).String() })
	obs.SetTagNames(func(ord uint8) string { return simmem.Tag(ord).String() })
}

// SetObserver installs (or, with nil, removes) the device's observer.
// Install observers before worker threads start issuing operations; the
// field itself is not synchronized, matching SetFaultInjector.
func (h *HTM) SetObserver(o obs.Observer) { h.obs = o }

// Observer returns the installed observer (nil when disabled).
func (h *HTM) Observer() obs.Observer { return h.obs }

// NoteNode annotates subsequent attempts of this thread with a tree-node
// id (the Euno two-region protocol's connection leaf), so abort events —
// and the heatmaps built from them — can attribute contention to a leaf
// rather than a raw cache line. Annotate with 0 to clear. A no-op without
// an observer.
func (t *Thread) NoteNode(id uint64) {
	if t.H.obs != nil {
		t.obsNode = id
	}
}

// NoteStitch emits a stitch-window event: the thread is between the upper
// and lower HTM regions, holding only the (leaf, seqno) connection point.
func (t *Thread) NoteStitch(node uint64) {
	if o := t.H.obs; o != nil {
		o.Event(obs.Event{
			Kind: obs.EvStitch,
			Proc: int32(t.P.ID()),
			TS:   t.P.Now(),
			Node: node,
		})
	}
}

// deviceStats aggregates Stats across every thread of the device.
// Per-thread Stats stay plain uint64s owned by their goroutine (the hot
// path); each thread folds its delta into these atomics once per Execute/
// RunFallback (batched on a host thread, see maybeFlushDeviceStats), so
// DB-wide snapshots are race-free and cheap. The per-transaction counters
// are padded to their own cache lines: goroutines on host threads flush
// into them concurrently, and packing them would make the flush a
// coherence hotspot of exactly the kind pad.go's benchmark measures.
type deviceStats struct {
	attempts     simmem.PaddedUint64
	commits      simmem.PaddedUint64
	fallbacks    simmem.PaddedUint64
	txLoads      simmem.PaddedUint64
	txStores     simmem.PaddedUint64
	wastedCycles simmem.PaddedUint64
	aborts       [NumAbortReasons]atomic.Uint64
}

// DeviceStats snapshots the device-wide aggregated statistics: every
// thread's activity up to its last completed Execute or RunFallback.
func (h *HTM) DeviceStats() Stats {
	d := &h.dev
	s := Stats{
		Attempts:     d.attempts.Load(),
		Commits:      d.commits.Load(),
		Fallbacks:    d.fallbacks.Load(),
		WastedCycles: d.wastedCycles.Load(),
		TxLoads:      d.txLoads.Load(),
		TxStores:     d.txStores.Load(),
	}
	for i := range s.Aborts {
		s.Aborts[i] = d.aborts[i].Load()
	}
	return s
}

// flushDeviceStats folds the thread's per-field growth since the last
// flush into the device aggregates. Zero deltas skip the atomic entirely,
// so an idle field costs one comparison.
func (t *Thread) flushDeviceStats() {
	d := &t.H.dev
	cur, prev := &t.Stats, &t.devFlushed
	add := func(c *atomic.Uint64, now, before uint64) {
		if now != before {
			c.Add(now - before)
		}
	}
	add(&d.attempts.Uint64, cur.Attempts, prev.Attempts)
	add(&d.commits.Uint64, cur.Commits, prev.Commits)
	add(&d.fallbacks.Uint64, cur.Fallbacks, prev.Fallbacks)
	for i := range cur.Aborts {
		add(&d.aborts[i], cur.Aborts[i], prev.Aborts[i])
	}
	add(&d.wastedCycles.Uint64, cur.WastedCycles, prev.WastedCycles)
	add(&d.txLoads.Uint64, cur.TxLoads, prev.TxLoads)
	add(&d.txStores.Uint64, cur.TxStores, prev.TxStores)
	t.devFlushed = *cur
}

// hostFlushEvery is how many Execute/RunFallback completions a host thread
// batches before folding its stats into the device aggregates. A proc that
// keeps virtual time flushes every time (the flush is free in virtual time
// and keeping it per-op preserves bit-identical figure runs); at native
// speed a per-op flush of half a dozen shared atomics would itself become
// the scaling bottleneck it is meant to observe.
const hostFlushEvery = 64

func (t *Thread) maybeFlushDeviceStats() {
	if !t.tx.host {
		t.flushDeviceStats()
		return
	}
	t.sinceFlush++
	if t.sinceFlush >= hostFlushEvery {
		t.sinceFlush = 0
		t.flushDeviceStats()
	}
}

// FlushStats folds any batched per-thread statistics into the device
// aggregates immediately. Harnesses call it per host thread at the end of
// a run so DeviceStats reflects every completed operation; it is a
// harmless no-op when nothing is pending.
func (t *Thread) FlushStats() { t.flushDeviceStats() }
