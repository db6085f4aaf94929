package simmem

import (
	"fmt"

	"eunomia/internal/vclock"
)

// Per-proc cache model.
//
// Each virtual core owns a direct-mapped table of (line, version) entries.
// An access hits when the table holds the line *at its current version*;
// any committed write — transactional or direct — advances the line's
// version, so every other core's cached copy silently becomes a miss. This
// is a deliberately minimal model of private caches plus MESI
// invalidation: read-shared hot lines (upper index levels, a hot leaf's
// segment lines) cost CostModel.Load, anything recently written by another
// core costs CostModel.Miss. It reproduces the two locality effects the
// paper's numbers depend on: cold traversals are expensive relative to
// in-node computation, and contended lines get *more* expensive as
// contention rises (longer transactions, wider conflict windows).
//
// Only procs that keep virtual time have a cache. A vclock.HostProc's
// accesses never enter the model (see vclock.IsHost): its Tick is free, so
// a charge would buy nothing, and its ID is only a label.
//
// Concurrency contract: a proc ID must be used by at most one goroutine at
// a time (the same rule Proc itself has); each ID owns one cache.

const (
	// cacheSlots is the per-proc capacity in lines (direct-mapped). At 64
	// bytes per line this models ~64 KB of private cache.
	cacheSlots = 1024
	// maxProcs bounds the IDs of the procs that keep virtual time.
	maxProcs = 256
)

type procCache struct {
	lines [cacheSlots]uint64
	vers  [cacheSlots]uint64
	valid [cacheSlots]bool
}

// cacheFor returns the proc's private cache, allocating it on first use
// (only that proc's goroutine ever touches its slot).
func (a *Arena) cacheFor(p vclock.Proc) *procCache {
	id := p.ID()
	if id < 0 || id >= maxProcs {
		panic(fmt.Sprintf("simmem: proc id %d out of [0,%d)", id, maxProcs))
	}
	c := a.caches[id]
	if c == nil {
		c = new(procCache)
		a.caches[id] = c
	}
	return c
}

// cacheSlot maps a line to its direct-mapped cache slot.
func cacheSlot(line uint64) uint64 {
	return (line * 0x9e3779b97f4a7c15 >> 33) % cacheSlots
}

// ChargeAccess charges p for touching the line containing addr: the hit
// cost if the proc's cache holds the line at its current version, the miss
// penalty otherwise (installing it). write selects the store hit cost.
func (a *Arena) ChargeAccess(p vclock.Proc, addr Addr, write bool) {
	if vclock.IsHost(p) {
		return
	}
	line := addr.Line()
	a.chargeAccessLine(p, line, StateVersion(a.state[line].Load()), write)
}

// ChargeAccessVersioned is ChargeAccess for callers that already validated
// the line's state word (the HTM Load path reads it twice for opacity): it
// takes the line version as an argument instead of atomically re-loading
// the state, removing a redundant atomic load from the hottest path in the
// emulator.
func (a *Arena) ChargeAccessVersioned(p vclock.Proc, addr Addr, ver uint64, write bool) {
	if vclock.IsHost(p) {
		return
	}
	a.chargeAccessLine(p, addr.Line(), ver, write)
}

func (a *Arena) chargeAccessLine(p vclock.Proc, line, ver uint64, write bool) {
	c := a.cacheFor(p)
	slot := cacheSlot(line)
	costs := &a.costs
	if c.valid[slot] && c.lines[slot] == line && c.vers[slot] == ver {
		if write {
			p.Tick(costs.Store)
		} else {
			p.Tick(costs.Load)
		}
		return
	}
	c.valid[slot] = true
	c.lines[slot] = line
	c.vers[slot] = ver
	p.Tick(costs.Miss)
}

// NoteLineWritten refreshes the writer's own cached copy after it advanced
// a line's version, so a core re-reading its own recent write still hits.
func (a *Arena) NoteLineWritten(p vclock.Proc, line uint64, newVer uint64) {
	if vclock.IsHost(p) {
		return
	}
	c := a.cacheFor(p)
	slot := cacheSlot(line)
	c.valid[slot] = true
	c.lines[slot] = line
	c.vers[slot] = newVer
}
