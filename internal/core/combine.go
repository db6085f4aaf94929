package core

import (
	"sync/atomic"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
)

// CCM v2: elimination and flat combining for the hottest keys and leaves.
//
// The paper's conflict control module *serializes* same-record requests
// (lock bits) and *filters* absent-key requests (mark slots); under extreme
// skew (Zipf θ=0.99, single-key hammers) the serialized requests still each
// pay a full lower-region transaction on the same cache lines. CCM v2 goes
// further, borrowing from elimination (a,b)-trees:
//
//   - Elimination: a concurrent insert+delete pair on the same key whose
//     key is provably absent annihilates — the pair linearizes as
//     put-immediately-followed-by-delete at the proof instant, touching
//     neither the leaf nor (net zero) the WAL.
//
//   - Flat combining: puts and deletes that target the same hot leaf
//     publish into a per-stripe publication array; one thread (the
//     combiner) claims the stripe and drains every published request in a
//     single lower-region transaction — one seqno validation, one set of
//     cache-line acquisitions, one WAL group record — while the others
//     wait on their slot.
//
// The layer sits entirely outside the HTM regions, like the CCM line: slots
// live on the Go heap and are coordinated with Go atomics (deterministic
// under the lockstep simulator, which runs one goroutine at a time; polite
// under the host backend, where the waiters' Proc.Spin yields). The gate is the same
// adaptive hotness signal the CCM uses, so cold leaves never pay a thing.

// GroupOp is one applied operation inside a durable group commit.
type GroupOp struct {
	Key, Val uint64
	Delete   bool
}

// GroupTxn is one open group-commit transaction: the durability layer
// holds the WAL shard locks for the batch's keys between Begin and
// Commit/Abort, so the in-memory batch and its single WAL group record are
// atomic with respect to snapshots and per-key ordering.
type GroupTxn interface {
	// Commit appends one WAL group record covering ops and acknowledges
	// after it is flushed (or per the store's group-commit mode).
	Commit(ops []GroupOp) error
	// Abort releases the transaction without logging anything. Its error
	// says the writes the batch observed (its deletes all missed) could not
	// be made durable, so those answers must not be acknowledged.
	Abort() error
}

// GroupCommitter mints group transactions; the eunomia package installs an
// adapter over durable.Store via Tree.SetGroupCommitter when durability is
// enabled. With a committer installed, plain Put/Delete stop combining
// internally — the owning DB routes through TryCombinePut/TryCombineDelete
// before its own WAL logging instead, so nothing is logged twice.
type GroupCommitter interface {
	Begin(keys []uint64) (GroupTxn, error)
}

// Publication-slot states. Free→Reserved (publisher CAS), Reserved→
// Published (publisher, after filling the request), Published→Claimed
// (combiner CAS), Claimed→Done (combiner, after filling the response),
// Done→Free (publisher, after reading the response).
const (
	slotFree uint32 = iota
	slotReserved
	slotPublished
	slotClaimed
	slotDone
)

// combineSlot is one publication slot. The request fields are written
// while Reserved and read while Claimed; the response fields are written
// while Claimed and read while Done — each side has exclusive access in
// those states, and the atomic state transitions order the plain fields.
type combineSlot struct {
	state atomic.Uint32

	// Request.
	key, val uint64
	del      bool
	leaf     simmem.Addr
	s0       uint64

	// Response.
	redo  bool  // run the normal path (seqno mismatch, maintenance, Begin failure)
	found bool  // delete: key was present
	err   error // durable group-commit failure for an applied op
}

type combineStripe struct {
	lock  atomic.Uint32
	slots []combineSlot
}

type combiner struct {
	stripes []combineStripe
}

func newCombiner(cfg CombineConfig) *combiner {
	c := &combiner{stripes: make([]combineStripe, cfg.Stripes)}
	for i := range c.stripes {
		c.stripes[i].slots = make([]combineSlot, cfg.Slots)
	}
	return c
}

// stripeOf maps a leaf to its stripe. Same leaf → same stripe, so a burst
// on one leaf always meets in one publication array.
func (c *combiner) stripeOf(leaf simmem.Addr) *combineStripe {
	x := uint64(leaf) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return &c.stripes[x%uint64(len(c.stripes))]
}

// SetGroupCommitter installs the durability hook for combined batches.
// Install before any combining traffic; may be nil (non-durable).
func (t *Tree) SetGroupCommitter(gc GroupCommitter) { t.gc = gc }

// CombineEnabled reports whether the CCM v2 layer is active.
func (t *Tree) CombineEnabled() bool { return t.comb != nil }

// TryCombinePut offers a put to the combining layer. handled=false means
// the layer declined (cold leaf, full stripe, or the batch outcome demands
// the normal path) and the caller must run the ordinary put. It exists for
// durable owners that must interleave combining with their own logging;
// non-durable paths combine inside plain Put.
func (t *Tree) TryCombinePut(th *htm.Thread, key, val uint64) (bool, error) {
	if t.comb == nil {
		return false, nil
	}
	handled, _, err := t.tryCombine(th, key, val, false)
	return handled, err
}

// TryCombineDelete is TryCombinePut's delete counterpart; found is
// meaningful only when handled.
func (t *Tree) TryCombineDelete(th *htm.Thread, key uint64) (handled, found bool, err error) {
	if t.comb == nil {
		return false, false, nil
	}
	return t.tryCombine(th, key, 0, true)
}

// tryCombine publishes one put/delete into the leaf's stripe and waits for
// a combiner to serve it — becoming the combiner itself whenever the
// stripe lock is free (so an unserved publisher always self-serves; no
// lost-wakeup livelock).
func (t *Tree) tryCombine(th *htm.Thread, key, val uint64, del bool) (handled, found bool, err error) {
	leaf, s0 := t.upper(th, key)
	th.NoteNode(uint64(leaf))
	ccm := t.ccmAddr(leaf)
	if !t.leafHot(th.P, ccm) {
		return false, false, nil
	}
	st := t.comb.stripeOf(leaf)
	var slot *combineSlot
	for i := range st.slots {
		s := &st.slots[i]
		if s.state.Load() == slotFree && s.state.CompareAndSwap(slotFree, slotReserved) {
			slot = s
			break
		}
	}
	if slot == nil {
		return false, false, nil // stripe saturated: normal path
	}
	slot.key, slot.val, slot.del = key, val, del
	slot.leaf, slot.s0 = leaf, s0
	th.Fault(htm.FaultCombine)
	slot.state.Store(slotPublished)
	for {
		if slot.state.Load() == slotDone {
			handled, found, err = !slot.redo, slot.found, slot.err
			slot.state.Store(slotFree)
			return handled, found, err
		}
		if st.lock.CompareAndSwap(0, 1) {
			t.combineDrain(th, st, slot)
			st.lock.Store(0)
			continue
		}
		th.P.Spin(t.a.Costs().SpinIter)
	}
}

// combineDrain claims every published request on the stripe and serves
// them, one transaction per distinct leaf.
func (t *Tree) combineDrain(th *htm.Thread, st *combineStripe, self *combineSlot) {
	th.Fault(htm.FaultCombine)
	var claimed []*combineSlot
	for i := range st.slots {
		s := &st.slots[i]
		if s.state.Load() == slotPublished && s.state.CompareAndSwap(slotPublished, slotClaimed) {
			claimed = append(claimed, s)
			if s != self {
				t.combinerHandoffs.Add(1)
			}
		}
	}
	for len(claimed) > 0 {
		leaf := claimed[0].leaf
		group := claimed[:0]
		var rest []*combineSlot
		for _, s := range claimed {
			if s.leaf == leaf {
				group = append(group, s)
			} else {
				rest = append(rest, s)
			}
		}
		t.combineLeaf(th, leaf, group)
		claimed = rest
	}
}

// finishRedo answers every op with "run the normal path yourself".
func finishRedo(ops []*combineSlot) {
	for _, op := range ops {
		op.redo, op.found, op.err = true, false, nil
		op.state.Store(slotDone)
	}
}

// applied reports whether an outcome mutated the tree (and therefore must
// be logged durably).
func applied(del bool, out outcome) bool {
	if del {
		return out == oFound
	}
	return out == oUpdated || out == oInserted
}

// combineLeaf serves one leaf's claimed batch: eliminate insert+delete
// pairs, then run every surviving op in a single lower-region transaction
// bracketed by one durable group commit.
func (t *Tree) combineLeaf(th *htm.Thread, leaf simmem.Addr, ops []*combineSlot) {
	ccm := t.ccmAddr(leaf)
	ops = t.eliminate(th, leaf, ccm, ops)
	if len(ops) == 0 {
		return
	}

	var gtx GroupTxn
	if t.gc != nil {
		keys := make([]uint64, 0, len(ops))
		seen := make(map[uint64]struct{}, len(ops))
		for _, op := range ops {
			if _, dup := seen[op.key]; !dup {
				seen[op.key] = struct{}{}
				keys = append(keys, op.key)
			}
		}
		var err error
		gtx, err = t.gc.Begin(keys)
		if err != nil {
			// The normal (per-op logging) path will surface the real error.
			finishRedo(ops)
			return
		}
	}
	t.combinedBatches.Add(1)
	t.combinedOps.Add(uint64(len(ops)))

	// Pre-mark every put — the anticipated-insert discipline of Tree.Put
	// done wholesale, so a concurrent get can never miss a committed
	// insert. Marks over-count transiently; non-inserts decrement below.
	if t.cfg.CCMMarkBits {
		for _, op := range ops {
			if !op.del {
				th.Fault(htm.FaultCCM)
				t.markAdd(th.P, ccm, t.slotOf(op.key), +1)
			}
		}
	}

	outs := make([]outcome, len(ops))
	tombs := make([]bool, len(ops))
	before := th.Stats.Attempts
	th.Execute(t.lowerPol, func(tx *htm.Tx) {
		// Re-run from scratch on retry: every op re-validates its own s0.
		for i, op := range ops {
			if op.del {
				outs[i], tombs[i] = t.leafDelete(tx, leaf, op.s0, op.key)
			} else {
				// Deterministic home-segment scheduling (batch ops are not
				// slot-serialized) with marks already pre-incremented.
				outs[i] = t.leafPut(tx, leaf, op.s0, op.key, op.val, false, th.Rand, false)
				tombs[i] = false
			}
		}
	})
	t.noteConflicts(th, ccm, th.Stats.Attempts-before-1)

	// Mark fixups: puts that did not insert, deletes that removed.
	if t.cfg.CCMMarkBits {
		for i, op := range ops {
			slot := t.slotOf(op.key)
			if !op.del && outs[i] != oInserted {
				t.markAdd(th.P, ccm, slot, -1)
			}
			if op.del && outs[i] == oFound {
				th.Fault(htm.FaultCCM)
				t.markAdd(th.P, ccm, slot, -1)
			}
		}
	}

	// One WAL group record covering exactly the applied ops.
	var commitErr error
	if gtx != nil {
		var logged []GroupOp
		for i, op := range ops {
			if applied(op.del, outs[i]) {
				logged = append(logged, GroupOp{Key: op.key, Val: op.val, Delete: op.del})
			}
		}
		if len(logged) > 0 {
			commitErr = gtx.Commit(logged)
		} else {
			commitErr = gtx.Abort()
		}
	}

	// Tombstone accounting; the deferred rebalance itself runs after the
	// batch is answered (compactLeaf takes the leaf lock, and the WAL shard
	// locks are released by now — no lock-order cycles).
	needCompact := false
	var compactS0 uint64
	for i, op := range ops {
		if tombs[i] &&
			t.a.AddWordDirect(th.P, ccm+ccmTombs, 1) >= t.cfg.RebalanceThreshold {
			needCompact, compactS0 = true, op.s0
		}
	}

	for i, op := range ops {
		switch outs[i] {
		case oMismatch, oMaint, oNeedMark:
			op.redo, op.found, op.err = true, false, nil
		default:
			op.redo = false
			op.found = op.del && outs[i] == oFound
			// The tree mutated but durability failed: same contract as a
			// failed LogPut — in memory, NOT durable. A delete that missed
			// shares it: what it observed is not durable either.
			op.err = commitErr
		}
		op.state.Store(slotDone)
	}
	if needCompact {
		t.compactLeaf(th, leaf, compactS0)
	}
}

// eliminate cancels same-key insert+delete pairs whose key is provably
// absent and answers both without touching the leaf. The absence proof:
// the key's counting mark is zero (marks never under-count a present key:
// inserts pre-mark before committing, splits initialize the new leaf's
// marks transactionally, deletes decrement only after removing), read
// *before* re-validating that the leaf's seqno still equals each paired
// op's sampled s0 — seqnos are monotonic, so a clean re-validation proves
// the leaf still covered the key at the instant the mark was read. The
// pair linearizes there: put, then delete (which observes the put and
// returns found). Net state change is zero, so nothing is logged; the
// UnsoundEliminate mutant skips the proof and is caught by the
// linearizability checker.
func (t *Tree) eliminate(th *htm.Thread, leaf, ccm simmem.Addr, ops []*combineSlot) []*combineSlot {
	unsound := t.cfg.Combine.UnsoundEliminate
	if len(ops) < 2 || (!t.cfg.CCMMarkBits && !unsound) {
		return ops
	}
	elim := make([]bool, len(ops))
	for i, put := range ops {
		if elim[i] || put.del {
			continue
		}
		for j, del := range ops {
			if elim[j] || !del.del || del.key != put.key {
				continue
			}
			if !unsound {
				if t.markCount(th.P, ccm, t.slotOf(put.key)) != 0 {
					break // key may be present: no elimination for this key
				}
				cur := t.a.LoadWord(th.P, leaf+offSeqno)
				if cur != put.s0 || cur != del.s0 {
					break // stale leaf view: let the batch path re-validate
				}
			}
			elim[i], elim[j] = true, true
			t.eliminatedPairs.Add(1)
			put.redo, put.found, put.err = false, false, nil
			del.redo, del.found, del.err = false, true, nil
			put.state.Store(slotDone)
			del.state.Store(slotDone)
			break
		}
	}
	rest := ops[:0]
	for i := range ops {
		if !elim[i] {
			rest = append(rest, ops[i])
		}
	}
	return rest
}
