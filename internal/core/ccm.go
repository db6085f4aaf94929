package core

import (
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
)

// The conflict control module (CCM) of a leaf occupies one cache line,
// tagged TagCCM, which operations access outside their HTM regions — the
// whole point is to serialize or filter requests before they enter a
// transaction (Figure 5). The lock bits serialize writers; readers wait out
// a writer. Only a partitioned leaf's lock bits, marks and tombstone count
// are used: a dense leaf's operations touch its contention score and, to
// rewrite it, its advisory lock. The one region that touches the line is a
// rewrite that partitions a leaf and counts its marks (addMarks,
// initMarks). Word offsets within the CCM line:
const (
	ccmSplitLock = 0 // advisory per-leaf lock serializing splits and compactions
	ccmLockBits  = 1 // one lock bit per hash slot, taken by puts and deletes
	ccmMarks0    = 2 // counting mark slots, 16 nibbles per word (2 words)
	ccmMarks1    = 3
	ccmConflict  = 4 // contention detector: decaying conflict score
	ccmTombs     = 5 // a partitioned leaf's tombstones since its last rebalance
)

// markSaturation is the nibble ceiling; a saturated slot never decrements
// again, keeping the filter conservative (false positives only).
const markSaturation = 15

// slotOf hashes a key to a CCM slot. All threads must agree on it.
func (t *Tree) slotOf(key uint64) uint {
	x := key + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return uint(x % uint64(t.nslots))
}

// lockSlot acquires a writer's advisory lock bit for a slot, spinning (and
// charging virtual time) until it wins — Algorithm 2 lines 30-31.
func (t *Tree) lockSlot(p vclock.Proc, ccm simmem.Addr, slot uint) {
	addr := ccm + ccmLockBits
	bit := uint64(1) << slot
	for {
		cur := t.a.LoadWord(p, addr)
		if cur&bit == 0 && t.a.CASWordDirect(p, addr, cur, cur|bit) {
			return
		}
		p.Spin(t.a.Costs().SpinIter)
	}
}

// awaitSlot is a reader's wait: loads, no CAS, until no writer holds the
// slot's bit (why a get waits rather than skips: config.go, deviations).
func (t *Tree) awaitSlot(p vclock.Proc, ccm simmem.Addr, slot uint) {
	for t.a.LoadWord(p, ccm+ccmLockBits)&(1<<slot) != 0 {
		p.Spin(t.a.Costs().SpinIter)
	}
}

// unlockSlot releases the advisory lock bit.
func (t *Tree) unlockSlot(p vclock.Proc, ccm simmem.Addr, slot uint) {
	addr := ccm + ccmLockBits
	bit := uint64(1) << slot
	for {
		cur := t.a.LoadWord(p, addr)
		if t.a.CASWordDirect(p, addr, cur, cur&^bit) {
			return
		}
		p.Spin(t.a.Costs().SpinIter)
	}
}

// markAddr returns the word and nibble shift for a slot's counter.
func markAddr(ccm simmem.Addr, slot uint) (simmem.Addr, uint) {
	return ccm + ccmMarks0 + simmem.Addr(slot/16), (slot % 16) * 4
}

// markCount reads a slot's counting mark.
func (t *Tree) markCount(p vclock.Proc, ccm simmem.Addr, slot uint) uint64 {
	addr, shift := markAddr(ccm, slot)
	return (t.a.LoadWord(p, addr) >> shift) & 0xf
}

// markAdd adjusts a slot's counting mark by +1 or -1 with saturating
// semantics and returns the new count. A saturated slot sticks at the
// ceiling forever (conservative). Decrements below zero are clamped.
func (t *Tree) markAdd(p vclock.Proc, ccm simmem.Addr, slot uint, delta int) uint64 {
	addr, shift := markAddr(ccm, slot)
	for {
		cur := t.a.LoadWord(p, addr)
		n := (cur >> shift) & 0xf
		switch {
		case delta > 0 && n < markSaturation:
			n++
		case delta < 0 && n > 0 && n < markSaturation:
			n--
		default:
			return n // saturated or clamped: leave as-is
		}
		next := (cur &^ (0xf << shift)) | (n << shift)
		if t.a.CASWordDirect(p, addr, cur, next) {
			return n
		}
		p.Spin(t.a.Costs().SpinIter)
	}
}

// lockLeaf acquires the per-leaf advisory split lock (serializing splits
// and compactions on the leaf; scans read a transactional snapshot and do
// not take it).
func (t *Tree) lockLeaf(p vclock.Proc, ccm simmem.Addr) {
	for !t.a.CASWordDirect(p, ccm+ccmSplitLock, 0, 1) {
		for t.a.LoadWord(p, ccm+ccmSplitLock) != 0 {
			p.Spin(t.a.Costs().SpinIter)
		}
	}
}

// unlockLeaf releases the advisory split lock.
func (t *Tree) unlockLeaf(p vclock.Proc, ccm simmem.Addr) {
	t.a.StoreWordDirect(p, ccm+ccmSplitLock, 0)
}

// leafHot consults the contention detector: a leaf is hot when its decayed
// conflict score is at or above the threshold. With Adaptive disabled the
// CCM is considered always-on.
func (t *Tree) leafHot(p vclock.Proc, ccm simmem.Addr) bool {
	return t.leafScore(p, ccm) >= t.cfg.HotThreshold
}

// leafScore reads the contention score; with Adaptive disabled every leaf
// is as hot as the threshold.
func (t *Tree) leafScore(p vclock.Proc, ccm simmem.Addr) uint64 {
	if !t.cfg.Adaptive {
		return t.cfg.HotThreshold
	}
	return t.a.LoadWord(p, ccm+ccmConflict)
}

// staysPart decides, from the score read before the region and the state
// read inside it, whether a rewrite leaves the leaf partitioned: a dense
// leaf once it is hot, a partitioned one until its score has decayed to
// nothing. Under the CCM a score hovers about the threshold by design (the
// CCM removes the aborts that feed it), and a leaf demoted on every dip
// pays a threshold's worth of aborts, dense, to be promoted again.
func (t *Tree) staysPart(score uint64, segs int) bool {
	return score >= t.cfg.HotThreshold || (segs != 0 && score > 0)
}

// noteConflicts feeds the contention detector after an operation that
// suffered aborts in the lower region. Conflict-free operations decay the
// score instead, on a sampled basis, so a leaf cools down once contention
// passes. The detector writes the CCM line only on aborts and on sampled
// decays — clean traffic leaves the line read-shared and therefore cached,
// keeping the detector itself from becoming a contention point.
//
// Aborts are the lower region's conflict aborts: a fallback-lock abort says
// nothing about this leaf. The operation whose aborts leave the score at or
// above the threshold on a leaf it saw short of the configured segments
// promotes it: leafMaint with nothing to put rewrites the leaf partitioned,
// splitting it if it holds more than rewriteCap.
func (t *Tree) noteConflicts(th *htm.Thread, leaf simmem.Addr, s0 uint64, segs int, aborts uint64) {
	if !t.cfg.Adaptive {
		return
	}
	ccm := t.ccmAddr(leaf)
	if aborts > 0 {
		if t.a.AddWordDirect(th.P, ccm+ccmConflict, aborts) >= t.cfg.HotThreshold && segs != t.cfg.Segments {
			t.leafMaint(th, leaf, s0, segs, 0, tree.Tombstone, false)
		}
		return
	}
	// Clean op: sampled decay-on-read (lossy racing is fine — the score is
	// a heuristic).
	if th.Rand.Uint64()%32 == 0 {
		if score := t.a.LoadWord(th.P, ccm+ccmConflict); score > 0 {
			t.a.StoreWordDirect(th.P, ccm+ccmConflict, score/2)
		}
	}
}
