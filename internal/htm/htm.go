// Package htm emulates Intel Restricted Transactional Memory (RTM) in
// software over a simmem.Arena.
//
// Why an emulator: Go cannot issue xbegin/xend (no intrinsics), and even via
// assembly stubs the runtime is hostile to hardware transactions — stack
// growth, preemption signals, and the garbage collector's write barriers all
// abort them. The paper's results, however, do not depend on transactions
// being executed by hardware; they depend on the *semantics* of hardware
// transactions: optimistic execution, conflict detection at cache-line
// granularity, bounded capacity, all-or-nothing abort with full re-execution,
// and a global-lock fallback for forward progress. This package reproduces
// exactly those semantics:
//
//   - TL2-style concurrency control: a transaction snapshots the arena's
//     global version clock (rv) at begin; every Load validates that the
//     line is unlocked and no newer than rv (providing opacity — a running
//     transaction never observes an inconsistent snapshot, which is what
//     RTM's eager conflict detection guarantees) and logs the line; Stores
//     are buffered; commit locks the write lines, validates the read log,
//     applies, and releases at a new clock value.
//
//   - Conflicts are detected per 64-byte line, so consecutive key layout
//     produces the false conflicts the paper measures.
//
//   - Read and write sets are capped at an L1d's worth of lines, producing
//     RTM capacity aborts.
//
//   - Aborts are classified for the Figure 2/9 decomposition: a conflict on
//     a metadata-tagged line is a shared-metadata abort; a conflict on a
//     data line is a true conflict if the last committed writer touched the
//     same word(s) the aborter accessed, and a false (cache-line-sharing)
//     conflict otherwise.
//
//   - A global fallback lock provides the standard lock-elision escape
//     hatch: every transaction subscribes to the lock word, and Execute
//     retries with per-reason thresholds (the DBX/DrTM policy) before
//     acquiring the lock and running the body non-transactionally.
package htm

import (
	"fmt"

	"eunomia/internal/obs"
	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// AbortReason says why a transaction attempt failed.
type AbortReason uint8

// Abort reasons. The three conflict reasons correspond to the paper's
// decomposition in Figures 2 and 9.
const (
	AbortNone          AbortReason = iota
	AbortConflictTrue              // conflicting access to the same word ("same record")
	AbortConflictFalse             // same cache line, disjoint words ("different records")
	AbortConflictMeta              // conflict on a shared-metadata line
	AbortCapacity                  // read or write set exceeded L1 capacity
	AbortExplicit                  // xabort issued by the program
	AbortFallbackLock              // fallback lock held or acquired mid-flight
	NumAbortReasons
)

// String returns a short name for the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortConflictTrue:
		return "conflict-true"
	case AbortConflictFalse:
		return "conflict-false"
	case AbortConflictMeta:
		return "conflict-meta"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	case AbortFallbackLock:
		return "fallback-lock"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// IsConflict reports whether the reason is one of the three conflict kinds.
func (r AbortReason) IsConflict() bool {
	return r == AbortConflictTrue || r == AbortConflictFalse || r == AbortConflictMeta
}

// Config sets the emulated hardware limits.
type Config struct {
	// MaxReadLines and MaxWriteLines bound the transactional working set,
	// modeling L1d capacity (32 KB / 64 B = 512 lines).
	MaxReadLines  int
	MaxWriteLines int

	// Deprecated: no effect. A thread's proc decides whether the cost
	// model runs (see Backend).
	Backend Backend

	// LemmingWait is the one hardening switch (false is the paper-faithful
	// behavior every figure measures): after an AbortFallbackLock, Execute
	// waits for the fallback lock to clear before re-attempting instead of
	// burning further aborts against it — the fix Brown's HTM template
	// paper identifies as the difference between a usable and a collapsing
	// fallback path. It is the whole hardening layer on purpose: it removes
	// the fallback-lock convoy by itself, and no other defence measured as
	// a gain on top of it (DESIGN.md §7).
	LemmingWait bool

	// Observer receives observability events (see internal/obs and
	// SetObserver). nil — the default — disables emission entirely; each
	// site then costs one nil check, and virtual-time metrics are
	// bit-identical to an un-instrumented build either way (observers
	// never tick the virtual clock).
	Observer obs.Observer
}

// DefaultConfig models the paper's Haswell-class parts.
var DefaultConfig = Config{MaxReadLines: 512, MaxWriteLines: 512}

// HTM is an emulated transactional-memory device bound to one arena.
type HTM struct {
	arena    *simmem.Arena
	cfg      Config
	fallback simmem.Addr // global elision lock word, on its own line
	fi       *FaultInjector
	obs      obs.Observer
	dev      deviceStats
}

// New creates an HTM emulator over the arena.
func New(a *simmem.Arena, cfg Config) *HTM {
	if cfg.MaxReadLines <= 0 {
		cfg.MaxReadLines = DefaultConfig.MaxReadLines
	}
	if cfg.MaxWriteLines <= 0 {
		cfg.MaxWriteLines = DefaultConfig.MaxWriteLines
	}
	return &HTM{
		arena:    a,
		cfg:      cfg,
		fallback: a.AllocAligned(vclock.NewHostProc(0), simmem.WordsPerLine, simmem.TagFallback),
		obs:      cfg.Observer,
	}
}

// Arena returns the memory the device is bound to.
func (h *HTM) Arena() *simmem.Arena { return h.arena }

// FallbackHeld reports whether the global fallback lock is currently taken
// (a diagnostic; the answer may be stale by the time it returns).
func (h *HTM) FallbackHeld() bool { return h.arena.WordRaw(h.fallback) != 0 }

type readEntry struct {
	line uint64
	mask uint8 // words of the line read by this transaction
}

// writeLine is one buffered line: the words stored so far in mask, their
// values in the Tx's wvals slots for this entry.
type writeLine struct {
	line uint64
	mask uint8
}

type allocRec struct {
	addr  simmem.Addr
	words int
	tag   simmem.Tag
}

// held records one line locked during commit, with the state word to
// restore if the commit aborts.
type held struct {
	line uint64
	prev uint64
}

// Tx is one transaction attempt. A Tx is only valid inside the body passed
// to Thread.Run / Thread.Execute; it must not be retained. In fallback mode
// (after the retry policy is exhausted) the same body runs with a Tx whose
// operations go directly to memory under the global lock.
//
// All per-attempt state below (slices, the line index, the commit scratch
// buffer) is retained across attempts and reset in O(1), so a warmed-up
// thread executes and commits transactions without heap allocation, and
// every Load/Store is O(1) regardless of read/write-set size (see
// txindex.go).
//
// The store buffer is the write-line list, one entry per line as RTM's L1
// tracks it: wls[i] holds the line and the mask of words stored, and
// wvals[i*WordsPerLine+w] holds word w's value, meaningful only where its
// mask bit is set. A store to a buffered word overwrites its slot, so
// commit applies each word once. order lists the slots in the order their
// words were first stored, and commit writes back in that order: the
// trees' absence proofs rely on it (a split stores a leaf's fences before
// its seqno, and a directory probe that reads the new seqno must find the
// new fences; DESIGN.md §5.2).
//
// The read set is a log: Load appends {line, word} and probes no table,
// because nothing that reads tx.rs needs it de-duplicated. A read-only
// commit never looks at it; a writing commit validates every entry, and a
// duplicate re-checks a state word it just checked; accessMask runs only on
// the way to an abort and ORs the matching entries. Only the capacity bound
// counts distinct lines, and the log cannot hold more than MaxReadLines of
// those before it has MaxReadLines entries — at which point foldReadLog
// de-duplicates it into tx.lines, once, and the attempt goes on indexed.
type Tx struct {
	h      *HTM
	p      vclock.Proc
	st     *Stats
	rv     uint64
	direct bool
	// host is vclock.IsHost(p), asked once: a host proc's accesses never
	// enter the cost model, so the hot paths skip the call that would find
	// that out per access.
	host bool

	rs     []readEntry // read log; one entry per line once rsFolded
	wls    []writeLine
	wvals  []uint64 // WordsPerLine value slots per wls entry
	order  []int32  // wvals slots in first-store order
	allocs []allocRec

	// lines maps a line to its wls index (+ owned flag during commit) and,
	// once rsFolded, to its rs index.
	lines    lineTab
	rsFolded bool

	// last{Line,State,Rs} are the most recently read line, the state word
	// its read validated, and its rs entry: the next Load of that line
	// revalidates by comparing one state load against lastState. lastLine
	// is noLine when the attempt has read nothing.
	lastLine  uint64
	lastState uint64
	lastRs    int32

	// lastWLine and lastWls are the most recently stored line and its wls
	// index, so stores and loads on that line skip the table probe.
	// lastWLine is noLine when no store is buffered.
	lastWLine uint64
	lastWls   int32

	locked []held // commit scratch: lines locked so far this attempt

	maxRead, maxWrite int // cfg limits, cached off the pointer chase
}

// noLine is a line number no address maps to (Addr.Line drops three bits).
const noLine = ^uint64(0)

// txAbort is the panic payload used to unwind an aborted attempt.
type txAbort struct {
	reason AbortReason
	line   uint64
	code   uint8
}

// Proc returns the executing virtual thread.
func (tx *Tx) Proc() vclock.Proc { return tx.p }

// Direct reports whether the transaction is running in fallback (non-
// transactional, global-lock) mode. Bodies rarely need this; it is exposed
// for tests and diagnostics.
func (tx *Tx) Direct() bool { return tx.direct }

// abort unwinds the attempt with the given reason.
func (tx *Tx) abort(reason AbortReason, line uint64, code uint8) {
	panic(&txAbort{reason: reason, line: line, code: code})
}

// Abort issues an explicit abort (RTM xabort) carrying a user code.
func (tx *Tx) Abort(code uint8) {
	if tx.direct {
		// A fallback execution cannot abort; this mirrors RTM, where the
		// fallback path runs non-speculatively. Bodies that can reach
		// Abort must check Direct() or structure the check so the direct
		// run never needs it.
		panic("htm: Abort called in fallback mode")
	}
	tx.abort(AbortExplicit, 0, code)
}

// accessMask returns every word of the line this transaction has touched so
// far (reads and buffered writes), plus extra bits for the access that is
// currently being attempted.
func (tx *Tx) accessMask(line uint64, extra uint8) uint8 {
	m := extra
	if s := tx.lines.get(line); s != nil {
		if s.rs != noIdx {
			m |= tx.rs[s.rs].mask
		}
		if s.wls != noIdx {
			m |= tx.wls[s.wls].mask
		}
	}
	if !tx.rsFolded {
		for _, re := range tx.rs {
			if re.line == line {
				m |= re.mask
			}
		}
	}
	return m
}

// recordReadIndexed records a validated read once the log has MaxReadLines
// entries: it folds the log on the first such read of the attempt, then
// merges into the line's entry or appends one, aborting where the read set
// would exceed MaxReadLines distinct lines.
func (tx *Tx) recordReadIndexed(line uint64, bit uint8) {
	if !tx.rsFolded {
		tx.foldReadLog()
	}
	ls := tx.lines.put(line)
	if ls.rs == noIdx {
		if len(tx.rs) >= tx.maxRead {
			tx.abort(AbortCapacity, line, 0)
		}
		ls.rs = int32(len(tx.rs))
		tx.rs = append(tx.rs, readEntry{line: line})
	}
	tx.rs[ls.rs].mask |= bit
	tx.lastRs = ls.rs
}

// foldReadLog de-duplicates the read log in place — masks merged, first
// occurrences kept in order — and indexes it in tx.lines, so that the rest
// of the attempt can tell a new line from a re-read.
func (tx *Tx) foldReadLog() {
	n := int32(0)
	for _, re := range tx.rs {
		ls := tx.lines.put(re.line)
		if ls.rs != noIdx {
			tx.rs[ls.rs].mask |= re.mask
			continue
		}
		ls.rs = n
		tx.rs[n] = re
		n++
	}
	tx.rs = tx.rs[:n]
	tx.rsFolded = true
}

// classifyConflict maps a conflicting line to the paper's abort taxonomy.
// accessMask is the set of words this transaction touched in the line.
func (tx *Tx) classifyConflict(line uint64, accessMask uint8) AbortReason {
	a := tx.h.arena
	switch a.TagOf(line) {
	case simmem.TagFallback:
		return AbortFallbackLock
	case simmem.TagTreeMeta, simmem.TagNodeMeta:
		return AbortConflictMeta
	}
	if a.WriteMask(line)&accessMask != 0 {
		return AbortConflictTrue
	}
	return AbortConflictFalse
}

// Load performs a transactional read of one word.
func (tx *Tx) Load(addr simmem.Addr) uint64 {
	tx.st.TxLoads++
	a := tx.h.arena
	if tx.direct {
		// A fallback-path load waits until no commit is writing the line
		// back. Taking the fallback lock stops transactions that have yet
		// to validate (they subscribe to the lock word), but one that
		// validated just before still holds its write lines locked while it
		// applies its stores; a load that ignored the line lock would read
		// that commit half applied, and the fallback body would then place
		// its own stores by what it read — a lost insert or a value under
		// the wrong key. Direct stores already wait, through the line lock
		// they take. Every proc waits, the virtual-time simulator's too: a
		// commit there charges its locking and write-back line by line, so
		// another core runs between its lock and its unlock, where on
		// hardware an RTM commit is atomic to every reader.
		return a.LoadWordSettled(tx.p, addr)
	}
	line := addr.Line()
	bit := uint8(1) << addr.WordInLine()
	// Read-your-writes: a buffered store to this word wins (a store-buffer
	// hit, charged at hit cost). A word of a buffered line that was not
	// stored is read from memory like any other.
	if len(tx.wls) > 0 {
		if i := tx.wlsOf(line); i != noIdx && tx.wls[i].mask&bit != 0 {
			tx.p.Tick(a.Costs().Load)
			return tx.wvals[int(i)*simmem.WordsPerLine+int(addr.WordInLine())]
		}
	}
	if line == tx.lastLine {
		// Same line as the previous read: its state was unlocked and no
		// newer than rv then, so "still that value" after reading the word
		// implies both checks below.
		v := a.WordRaw(addr)
		if a.LineState(line) != tx.lastState {
			tx.abort(tx.classifyConflict(line, tx.accessMask(line, bit)), line, 0)
		}
		tx.rs[tx.lastRs].mask |= bit
		if !tx.host {
			a.ChargeAccessVersioned(tx.p, addr, simmem.StateVersion(tx.lastState), false)
		}
		return v
	}
	s1 := a.LineState(line)
	if simmem.StateLocked(s1) || simmem.StateVersion(s1) > tx.rv {
		tx.abort(tx.classifyConflict(line, tx.accessMask(line, bit)), line, 0)
	}
	v := a.WordRaw(addr)
	if a.LineState(line) != s1 {
		tx.abort(tx.classifyConflict(line, tx.accessMask(line, bit)), line, 0)
	}
	// Record in the read set: append to the log while it cannot be over
	// capacity, merge through the index after that.
	if tx.rsFolded || len(tx.rs) >= tx.maxRead {
		tx.recordReadIndexed(line, bit)
	} else {
		tx.lastRs = int32(len(tx.rs))
		tx.rs = append(tx.rs, readEntry{line: line, mask: bit})
	}
	tx.lastLine, tx.lastState = line, s1
	// The recheck above pinned the line's state to s1, so its version is
	// StateVersion(s1); passing it down saves ChargeAccess an atomic
	// re-load of the state word.
	if !tx.host {
		a.ChargeAccessVersioned(tx.p, addr, simmem.StateVersion(s1), false)
	}
	return v
}

// Store performs a transactional (buffered) write of one word.
func (tx *Tx) Store(addr simmem.Addr, v uint64) {
	tx.st.TxStores++
	a := tx.h.arena
	if tx.direct {
		a.StoreWordDirect(tx.p, addr, v)
		return
	}
	line := addr.Line()
	i := tx.wlsOf(line)
	if i == noIdx {
		if len(tx.wls) >= tx.maxWrite {
			tx.abort(AbortCapacity, line, 0)
		}
		i = int32(len(tx.wls))
		tx.lines.put(line).wls = i
		tx.wls = append(tx.wls, writeLine{line: line})
		tx.wvals = append(tx.wvals, make([]uint64, simmem.WordsPerLine)...)
	}
	tx.lastWLine, tx.lastWls = line, i
	w := addr.WordInLine()
	slot := i*simmem.WordsPerLine + int32(w)
	if bit := uint8(1) << w; tx.wls[i].mask&bit == 0 {
		tx.wls[i].mask |= bit
		tx.order = append(tx.order, slot)
	}
	tx.wvals[slot] = v
	tx.p.Tick(a.Costs().Store)
}

// wlsOf returns the wls index of line, or noIdx if no store to it is
// buffered.
func (tx *Tx) wlsOf(line uint64) int32 {
	if line == tx.lastWLine {
		return tx.lastWls
	}
	if ls := tx.lines.get(line); ls != nil {
		return ls.wls
	}
	return noIdx
}

// AllocAligned allocates arena memory from inside the transaction. If the
// attempt later aborts, the allocation is automatically returned to the
// free list (real RTM leaks or double-books allocator state on abort, a
// pathology noted by Dice et al.; we model the clean variant).
func (tx *Tx) AllocAligned(nWords int, tag simmem.Tag) simmem.Addr {
	addr := tx.h.arena.AllocAligned(tx.p, nWords, tag)
	if !tx.direct {
		tx.allocs = append(tx.allocs, allocRec{addr: addr, words: nWords, tag: tag})
	}
	return addr
}

// releaseLocked restores every line locked so far in this commit attempt.
func (tx *Tx) releaseLocked() {
	a := tx.h.arena
	for _, l := range tx.locked {
		a.RestoreLine(l.line, l.prev)
	}
}

// commit finishes a (non-direct) attempt: it locks the write lines,
// validates the read set against rv, applies the buffered stores, and
// releases the lines at a fresh clock value. On any failure it unwinds via
// abort after releasing what it locked.
//
// Complexity: O(write lines + read-log entries) — locking marks each owned
// line in the tx.lines index, so read-set validation checks ownership with
// one lookup instead of scanning the locked list. The locked list itself
// lives in Tx scratch state, so a warmed-up writing commit allocates nothing.
func (tx *Tx) commit() {
	a := tx.h.arena
	costs := a.Costs()
	if len(tx.wls) == 0 {
		// Read-only transactions were fully validated at read time.
		tx.p.Tick(costs.TxCommit)
		return
	}
	tx.locked = tx.locked[:0]
	for _, wl := range tx.wls {
		prev, ok := a.TryLockLine(wl.line)
		if !ok {
			tx.releaseLocked()
			tx.abort(tx.classifyConflict(wl.line, tx.accessMask(wl.line, 0)), wl.line, 0)
		}
		tx.locked = append(tx.locked, held{wl.line, prev})
		if simmem.StateVersion(prev) > tx.rv {
			// The line was committed past our snapshot. If we also read
			// it, that read is invalid; even if we only wrote it, a TL2
			// commit at version > rv could order us inconsistently, so
			// abort (hardware would have aborted on the coherence event).
			tx.releaseLocked()
			tx.abort(tx.classifyConflict(wl.line, tx.accessMask(wl.line, 0)), wl.line, 0)
		}
		// Every write line was entered into tx.lines by Store, so the
		// lookup cannot miss; the owned flag is what read-set validation
		// keys on below. It needs no explicit clearing: reset invalidates
		// the whole table by generation.
		tx.lines.get(wl.line).owned = true
	}
	tx.p.Tick(costs.CAS) // clock advance
	wv := a.AdvanceClock()
	// Validate the read set. Lines we hold were validated via prev above.
	for _, re := range tx.rs {
		if ls := tx.lines.get(re.line); ls != nil && ls.owned {
			continue
		}
		s := a.LineState(re.line)
		if simmem.StateLocked(s) || simmem.StateVersion(s) > tx.rv {
			tx.releaseLocked()
			tx.abort(tx.classifyConflict(re.line, tx.accessMask(re.line, 0)), re.line, 0)
		}
	}
	// Apply, in first-store order, and release. Write-back charges per-line
	// coherence costs and refreshes the committer's own cached copies at
	// the new version.
	for _, s := range tx.order {
		line := tx.wls[s/simmem.WordsPerLine].line
		a.SetWordRaw(simmem.Addr(line*simmem.WordsPerLine)+simmem.Addr(s%simmem.WordsPerLine), tx.wvals[s])
	}
	for _, wl := range tx.wls {
		if !tx.host {
			a.ChargeAccess(tx.p, simmem.Addr(wl.line*simmem.WordsPerLine), true)
		}
		a.SetWriteMask(wl.line, wl.mask)
		a.UnlockLine(wl.line, wv)
		if !tx.host {
			a.NoteLineWritten(tx.p, wl.line, wv)
		}
	}
	tx.p.Tick(costs.TxCommit + costs.TxCommitPer*uint64(len(tx.wls)))
}

// reset prepares the Tx for a fresh attempt, retaining buffer and index
// capacity; every step is O(1) (the line index resets by generation).
func (tx *Tx) reset(direct bool) {
	tx.rs = tx.rs[:0]
	tx.wls = tx.wls[:0]
	tx.wvals = tx.wvals[:0]
	tx.order = tx.order[:0]
	tx.allocs = tx.allocs[:0]
	tx.locked = tx.locked[:0]
	tx.lines.reset()
	tx.rsFolded = false
	tx.lastLine = noLine
	tx.lastWLine = noLine
	tx.lastWls = noIdx
	tx.direct = direct
}
