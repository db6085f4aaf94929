// Package simmem provides the flat, garbage-collector-free memory substrate
// that every tree in this reproduction lives in: a word-addressed arena with
// per-cache-line version/lock metadata.
//
// The paper's analysis hinges on *where fields land in cache lines*: Intel
// RTM detects conflicts at 64-byte granularity, so two threads touching
// different records that share a line conflict anyway ("false conflicts"),
// and metadata words co-located with data amplify aborts. Go's heap gives no
// such control (and the GC would abort real hardware transactions, which is
// why a native-HTM reproduction is gated). The arena restores that control:
//
//   - memory is a flat []uint64; an Addr is a word index; 8 words = 1 line;
//   - every line carries a TL2-style versioned lock word used by the HTM
//     emulator (internal/htm) for conflict detection and by the direct
//     (non-transactional) accessors for strong atomicity;
//   - every line carries the word-mask of its last writer and an allocation
//     Tag, which lets an aborting transaction classify its abort as a true
//     conflict (overlapping words), a false conflict from consecutive layout
//     (same line, disjoint words), or a shared-metadata conflict (Tag) —
//     the decomposition behind Figures 2 and 9;
//   - allocation is tag-accounted, so the reserved-keys memory overhead
//     analysis of Section 5.7 falls out of the allocator.
//
// All accessors charge cycle costs through vclock.Proc, so memory traffic is
// visible in virtual time.
package simmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eunomia/internal/vclock"
)

// Addr is a word index into an arena. Addr 0 is never allocated and serves
// as the nil address.
type Addr uint64

// NilAddr is the reserved "no address" value.
const NilAddr Addr = 0

const (
	// WordsPerLine is the number of 8-byte words per 64-byte cache line.
	WordsPerLine = 8
	// LineShift converts a word address to a line number.
	LineShift = 3
	// WordBytes is the size of one word.
	WordBytes = 8
	// LineBytes is the size of one cache line.
	LineBytes = WordsPerLine * WordBytes
)

// Line returns the cache line number containing the address.
func (a Addr) Line() uint64 { return uint64(a) >> LineShift }

// WordInLine returns the word offset of the address within its line, 0..7.
func (a Addr) WordInLine() uint { return uint(a) & (WordsPerLine - 1) }

// Tag classifies an allocation for abort attribution and memory accounting.
type Tag uint8

// Allocation tags. TagTreeMeta and TagNodeMeta mark the "pervasive shared
// metadata" the paper blames for 6-10% of conflicts; TagReserved marks the
// transient reserved-keys buffers whose footprint Section 5.7 measures.
const (
	TagNone     Tag = iota
	TagTreeMeta     // tree-global metadata: root pointer, depth, version
	TagNodeMeta     // per-node metadata lines: counts, seqno, node version
	TagKeys         // key/value storage inside nodes
	TagCCM          // conflict control module bit vectors and advisory locks
	TagReserved     // reserved-keys transient sort buffers
	TagFallback     // the HTM global fallback (elision) lock
	TagOther        // anything else
	NumTags
)

// String returns a short human-readable tag name.
func (t Tag) String() string {
	switch t {
	case TagNone:
		return "none"
	case TagTreeMeta:
		return "tree-meta"
	case TagNodeMeta:
		return "node-meta"
	case TagKeys:
		return "keys"
	case TagCCM:
		return "ccm"
	case TagReserved:
		return "reserved"
	case TagFallback:
		return "fallback"
	default:
		return "other"
	}
}

// Line-state encoding: bit 0 is the lock bit, bits 1..63 hold the version
// (a value of the arena's global clock).
const lockBit = 1

// StateLocked reports whether a line-state word is locked.
func StateLocked(s uint64) bool { return s&lockBit != 0 }

// StateVersion extracts the version from a line-state word.
func StateVersion(s uint64) uint64 { return s >> 1 }

// Arena is a fixed-capacity, word-addressed shared memory. All word accesses
// are atomic, so the arena is safe for concurrent use from real goroutines
// as well as from virtual-time procs.
type Arena struct {
	words []uint64
	state []atomic.Uint64 // per line: version<<1 | lock
	wmask []atomic.Uint32 // per line: word mask of the last committed writer
	// tags holds each line's allocation tag. Reads (abort classification)
	// can race with retag/free of a recycled line, so the slots are atomic;
	// a classification that observes the old tag is as good as one that
	// observes the new one (the abort already happened either way).
	tags []atomic.Uint32

	// clock and next are the two hottest cross-thread words in the arena
	// (every committing writer bumps clock; every allocation bumps next).
	// Each sits alone on its cache line so host-backend cores do not
	// false-share them with each other or with neighboring fields.
	clock PaddedUint64 // global TL2 version clock
	next  PaddedUint64 // bump pointer, in words

	costs vclock.CostModel

	// nocost disables the cycle-cost cache model (see DisableCostModel):
	// every Charge*/Prefetch/NoteLineWritten becomes a no-op. Set once
	// before the arena is shared; the host backend runs this way.
	nocost bool

	mu    sync.Mutex
	free  map[int][]Addr // line-aligned free lists by size class (words)
	live  atomic.Int64   // live allocated bytes
	peak  atomic.Int64
	byTag [NumTags]atomic.Int64

	caches [MaxProcs]*procCache // per-proc cache model (see cache.go)
}

// NewArena creates an arena holding the given number of words (rounded up
// to a whole number of lines). The first line is reserved so that address 0
// is never valid.
func NewArena(words uint64) *Arena {
	if words < 2*WordsPerLine {
		words = 2 * WordsPerLine
	}
	words = (words + WordsPerLine - 1) &^ uint64(WordsPerLine-1)
	lines := words / WordsPerLine
	a := &Arena{
		words: make([]uint64, words),
		state: make([]atomic.Uint64, lines),
		wmask: make([]atomic.Uint32, lines),
		tags:  make([]atomic.Uint32, lines),
		costs: vclock.DefaultCosts,
		free:  make(map[int][]Addr),
	}
	a.next.Store(WordsPerLine) // reserve line 0
	return a
}

// DisableCostModel switches off cycle-cost accounting and the per-proc
// cache model: ChargeAccess, ChargeAccessVersioned, Prefetch and
// NoteLineWritten become no-ops, and proc IDs are no longer bounded by the
// cache model's table. The line version/lock metadata — the part of the
// arena that carries correctness — is unaffected. The host backend calls
// this once at device construction, before the arena is shared.
func (a *Arena) DisableCostModel() { a.nocost = true }

// CostModelDisabled reports whether DisableCostModel was called.
func (a *Arena) CostModelDisabled() bool { return a.nocost }

// Clock returns the current value of the global version clock.
func (a *Arena) Clock() uint64 { return a.clock.Load() }

// AdvanceClock atomically increments the global version clock and returns
// the new value, which the caller uses as a commit timestamp.
func (a *Arena) AdvanceClock() uint64 { return a.clock.Add(1) }

// AllocAligned allocates nWords of zeroed memory starting at a cache-line
// boundary and occupying a whole number of lines, tagged for accounting and
// abort classification. It panics if the arena is exhausted: that is a
// configuration error (increase the arena size), not a recoverable runtime
// condition.
func (a *Arena) AllocAligned(p vclock.Proc, nWords int, tag Tag) Addr {
	if nWords <= 0 {
		panic(fmt.Sprintf("simmem: AllocAligned(%d)", nWords))
	}
	n := roundLines(nWords)
	p.Tick(a.costs.Compute * 8) // allocator bookkeeping

	a.mu.Lock()
	if lst := a.free[n]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		a.free[n] = lst[:len(lst)-1]
		a.mu.Unlock()
		a.account(n, tag)
		a.setTags(addr, n, tag)
		return addr
	}
	a.mu.Unlock()

	for {
		old := a.next.Load()
		if old+uint64(n) > uint64(len(a.words)) {
			panic(fmt.Sprintf("simmem: arena exhausted (cap %d words, need %d more); increase the arena size", len(a.words), n))
		}
		if a.next.CompareAndSwap(old, old+uint64(n)) {
			addr := Addr(old)
			a.account(n, tag)
			a.setTags(addr, n, tag)
			return addr
		}
	}
}

func (a *Arena) setTags(addr Addr, nWords int, tag Tag) {
	first := addr.Line()
	last := (uint64(addr) + uint64(nWords) - 1) >> LineShift
	for l := first; l <= last; l++ {
		a.tags[l].Store(uint32(tag))
	}
}

func (a *Arena) account(nWords int, tag Tag) {
	b := int64(nWords * WordBytes)
	live := a.live.Add(b)
	for {
		pk := a.peak.Load()
		if live <= pk || a.peak.CompareAndSwap(pk, live) {
			break
		}
	}
	a.byTag[tag].Add(b)
}

// Free returns a line-aligned allocation to the free list. The memory is
// zeroed through version-bumping stores so that any in-flight transaction
// still holding the address aborts instead of observing recycled contents.
// nWords must match the original request (it is rounded the same way).
func (a *Arena) Free(p vclock.Proc, addr Addr, nWords int, tag Tag) {
	if addr == NilAddr {
		return
	}
	n := roundLines(nWords)
	if uint64(addr)&(WordsPerLine-1) != 0 {
		panic(fmt.Sprintf("simmem: Free of unaligned addr %d", addr))
	}
	for i := 0; i < n; i += WordsPerLine {
		base := addr + Addr(i)
		line := base.Line()
		a.lockLineSpin(p, line)
		for w := 0; w < WordsPerLine; w++ {
			atomic.StoreUint64(&a.words[base+Addr(w)], 0)
		}
		a.wmask[line].Store(0xff)
		a.state[line].Store(a.AdvanceClock() << 1)
		p.Tick(a.costs.Store * WordsPerLine)
		// Per-line tag accounting: parts of the allocation may have been
		// retagged (node metadata, CCM lines).
		a.byTag[Tag(a.tags[line].Load())].Add(-LineBytes)
		a.tags[line].Store(uint32(tag))
	}
	a.live.Add(int64(-n * WordBytes))
	a.mu.Lock()
	a.free[n] = append(a.free[n], addr)
	a.mu.Unlock()
}

// roundLines rounds a word count up to whole lines.
func roundLines(nWords int) int {
	return (nWords + WordsPerLine - 1) &^ (WordsPerLine - 1)
}

// LiveBytes returns the number of currently allocated bytes.
func (a *Arena) LiveBytes() int64 { return a.live.Load() }

// PeakBytes returns the high-water mark of allocated bytes.
func (a *Arena) PeakBytes() int64 { return a.peak.Load() }

// BytesByTag returns the live bytes attributed to one allocation tag.
func (a *Arena) BytesByTag(t Tag) int64 { return a.byTag[t].Load() }

// TagOf returns the allocation tag of a line.
func (a *Arena) TagOf(line uint64) Tag { return Tag(a.tags[line].Load()) }

// Retag reassigns the classification tag of the lines spanned by
// [addr, addr+nWords). Trees use it to mark a node's metadata line
// differently from its key lines so abort classification can distinguish
// shared-metadata conflicts from data conflicts. The byte accounting for
// the retagged span moves to the new tag. Must be called before the memory
// is shared (typically right after allocation).
func (a *Arena) Retag(addr Addr, nWords int, tag Tag) {
	first := addr.Line()
	last := (uint64(addr) + uint64(nWords) - 1) >> LineShift
	old := Tag(a.tags[first].Load())
	for l := first; l <= last; l++ {
		a.tags[l].Store(uint32(tag))
	}
	b := int64(nWords * WordBytes)
	a.byTag[old].Add(-b)
	a.byTag[tag].Add(b)
}

// --- line-state primitives (used by internal/htm and the direct ops) ---

// LineState returns the current state word of a line.
func (a *Arena) LineState(line uint64) uint64 { return a.state[line].Load() }

// TryLockLine attempts to acquire a line's lock. On success it returns the
// previous (unlocked) state and true; if the line is already locked it
// returns the observed state and false.
func (a *Arena) TryLockLine(line uint64) (prev uint64, ok bool) {
	s := a.state[line].Load()
	if StateLocked(s) {
		return s, false
	}
	if a.state[line].CompareAndSwap(s, s|lockBit) {
		return s, true
	}
	return a.state[line].Load(), false
}

// UnlockLine releases a locked line, installing a new version.
func (a *Arena) UnlockLine(line uint64, newVer uint64) {
	a.state[line].Store(newVer << 1)
}

// RestoreLine releases a locked line without changing its version (used
// when the lock holder made no modification, e.g. a failed direct CAS).
func (a *Arena) RestoreLine(line uint64, prevState uint64) {
	a.state[line].Store(prevState)
}

// lockLineSpin acquires a line lock, charging spin cost while it waits.
func (a *Arena) lockLineSpin(p vclock.Proc, line uint64) (prev uint64) {
	for {
		s, ok := a.TryLockLine(line)
		if ok {
			p.Tick(a.costs.CAS)
			return s
		}
		p.Spin(a.costs.SpinIter)
	}
}

// SetWriteMask publishes the word mask of the most recent committed writer
// of a line; mask bit i corresponds to word i of the line.
func (a *Arena) SetWriteMask(line uint64, mask uint8) {
	a.wmask[line].Store(uint32(mask))
}

// WriteMask returns the word mask of the last committed writer of a line.
func (a *Arena) WriteMask(line uint64) uint8 { return uint8(a.wmask[line].Load()) }

// WordRaw atomically reads a word with no cost accounting and no state
// checks. It is intended for the HTM engine (which does its own accounting)
// and for tests.
func (a *Arena) WordRaw(addr Addr) uint64 {
	return atomic.LoadUint64(&a.words[addr])
}

// SetWordRaw atomically writes a word with no cost accounting and no state
// maintenance. The caller must hold the line lock or otherwise guarantee
// exclusion (e.g. single-threaded initialization).
func (a *Arena) SetWordRaw(addr Addr, v uint64) {
	atomic.StoreUint64(&a.words[addr], v)
}

// --- direct (non-transactional) accessors ---
//
// These model plain and atomic instructions executed outside any HTM
// region. Stores and CASes lock the line and advance its version so that
// conflicting hardware transactions abort — the "strong atomicity" of
// Intel RTM. Single-word loads need no validation: a word load is atomic
// and always observes a committed value under the lazy-versioning commit
// protocol in internal/htm.

// LoadWord performs a direct single-word load.
func (a *Arena) LoadWord(p vclock.Proc, addr Addr) uint64 {
	a.ChargeAccess(p, addr, false)
	return atomic.LoadUint64(&a.words[addr])
}

// StoreWordDirect performs a direct single-word store, bumping the line
// version so concurrent transactions that read the line abort.
func (a *Arena) StoreWordDirect(p vclock.Proc, addr Addr, v uint64) {
	a.ChargeAccess(p, addr, true)
	line := addr.Line()
	a.lockLineSpin(p, line)
	atomic.StoreUint64(&a.words[addr], v)
	a.wmask[line].Store(1 << addr.WordInLine())
	ver := a.AdvanceClock()
	a.state[line].Store(ver << 1)
	a.NoteLineWritten(p, line, ver)
}

// StoreWordOwned performs an atomic store to a line whose exclusion the
// caller already guarantees through an application-level lock (e.g. a
// Masstree node lock). It skips the line-lock handshake but still advances
// the line version, so other cores' cached copies are invalidated and
// overlapping transactions abort.
func (a *Arena) StoreWordOwned(p vclock.Proc, addr Addr, v uint64) {
	a.ChargeAccess(p, addr, true)
	line := addr.Line()
	atomic.StoreUint64(&a.words[addr], v)
	a.wmask[line].Store(1 << addr.WordInLine())
	ver := a.AdvanceClock()
	a.state[line].Store(ver << 1)
	a.NoteLineWritten(p, line, ver)
}

// CASWordDirect performs a direct compare-and-swap on one word. A failed
// CAS leaves the line version unchanged, so pure readers are not disturbed.
func (a *Arena) CASWordDirect(p vclock.Proc, addr Addr, old, new uint64) bool {
	a.ChargeAccess(p, addr, true)
	line := addr.Line()
	prev := a.lockLineSpin(p, line)
	cur := atomic.LoadUint64(&a.words[addr])
	if cur != old {
		a.RestoreLine(line, prev)
		return false
	}
	atomic.StoreUint64(&a.words[addr], new)
	a.wmask[line].Store(1 << addr.WordInLine())
	ver := a.AdvanceClock()
	a.state[line].Store(ver << 1)
	a.NoteLineWritten(p, line, ver)
	return true
}

// AddWordDirect atomically adds delta to a word and returns the new value,
// with the same version-bumping semantics as StoreWordDirect.
func (a *Arena) AddWordDirect(p vclock.Proc, addr Addr, delta uint64) uint64 {
	a.ChargeAccess(p, addr, true)
	line := addr.Line()
	a.lockLineSpin(p, line)
	v := atomic.LoadUint64(&a.words[addr]) + delta
	atomic.StoreUint64(&a.words[addr], v)
	a.wmask[line].Store(1 << addr.WordInLine())
	ver := a.AdvanceClock()
	a.state[line].Store(ver << 1)
	a.NoteLineWritten(p, line, ver)
	return v
}

// Costs returns the arena's cost model (shared with the HTM engine).
func (a *Arena) Costs() *vclock.CostModel { return &a.costs }
