package core

import (
	"fmt"
	"math"
	"slices"

	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
)

// Validate walks the entire tree with direct (non-transactional) reads and
// checks every structural invariant. It requires quiescence — no
// concurrent operations — and is intended for tests and debugging.
//
// Checked invariants:
//   - internal nodes: separator keys strictly ascending and within the
//     node's inherited [low, high] bounds; child count = key count + 1;
//   - leaves: the state word is 0 (dense) or Segments (partitioned); the
//     run strictly sorted and no longer than its state allows (denseCap,
//     StableCap); in a partitioned leaf every segment strictly sorted and
//     every segment key in its home (segOf of its stable slot or insertion
//     point); no key present twice among
//     live locations (a stable entry shadowed by a segment copy is
//     allowed, a duplicate within or across segments is not). A dense
//     leaf holds no tombstone, and its segment area is run or garbage and
//     is not interpreted;
//   - the leaf chain visits leaves in ascending key order and agrees with
//     the set of leaves reachable from the root;
//   - fences: the first leaf's lo is 0, the last leaf's hi is MaxUint64,
//     each leaf's lo is the previous leaf's hi + 1, every key lies within
//     its leaf's fences, and the fences are the parent separators' bounds;
//   - with mark slots enabled, every live key's slot of a partitioned leaf
//     has a nonzero count (marks may over-count, never under-count; a
//     dense leaf's are not kept);
//   - every leaf's CCM lock-bit and split-lock words are 0: at rest no
//     writer holds a lock (a release that cleared a bit it did not hold
//     would leave bits above it set that no one holds).
func (t *Tree) Validate(p vclock.Proc) error {
	root := simmem.Addr(t.a.LoadWord(p, t.meta+metaRoot))
	depth := t.a.LoadWord(p, t.meta+metaDepth)
	// The next-pointer chain, whose fences must tile the keys in order.
	leftmost := root
	for d := depth; d > 1; d-- {
		leftmost = simmem.Addr(t.a.LoadWord(p, t.intChild(leftmost, 0)))
	}
	chain := map[simmem.Addr]bool{} // leaves on it the recursion has yet to reach
	var lo uint64                   // the lo fence the next leaf must have
	for l := leftmost; l != simmem.NilAddr; l = simmem.Addr(t.a.LoadWord(p, l+offNext)) {
		if got := t.a.LoadWord(p, l+offLo); got != lo {
			return fmt.Errorf("leaf %d: lo fence %d, want %d (0 first, else the previous hi + 1)", l, got, lo)
		}
		hi := t.a.LoadWord(p, l+offHi)
		if t.a.LoadWord(p, l+offNext) == uint64(simmem.NilAddr) && hi != math.MaxUint64 {
			return fmt.Errorf("last leaf %d: hi fence %d, want MaxUint64", l, hi)
		}
		lo = hi + 1
		chain[l] = true
	}
	if err := t.validateNode(p, root, depth, 0, ^uint64(0), chain); err != nil {
		return err
	}
	if len(chain) != 0 {
		return fmt.Errorf("%d leaves on the chain not reachable from the root", len(chain))
	}
	return nil
}

// validateNode recursively checks the subtree at node, whose keys must lie
// in [low, high].
func (t *Tree) validateNode(p vclock.Proc, node simmem.Addr, depth uint64, low, high uint64, chain map[simmem.Addr]bool) error {
	if depth == 1 {
		return t.validateLeaf(p, node, low, high, chain)
	}
	count := int(t.a.LoadWord(p, node+offCount))
	if count < 1 || count > t.cfg.StableCap {
		return fmt.Errorf("internal %d: count %d out of range", node, count)
	}
	prev := low
	for i := 0; i < count; i++ {
		k := t.a.LoadWord(p, t.intKey(node, i))
		if k < prev || (i > 0 && k == prev) {
			return fmt.Errorf("internal %d: separator %d at %d not ascending (prev %d)", node, k, i, prev)
		}
		if k > high {
			return fmt.Errorf("internal %d: separator %d exceeds bound %d", node, k, high)
		}
		prev = k
	}
	childLow := low
	for i := 0; i <= count; i++ {
		childHigh := high
		if i < count {
			childHigh = t.a.LoadWord(p, t.intKey(node, i)) - 1
		}
		child := simmem.Addr(t.a.LoadWord(p, t.intChild(node, i)))
		if child == simmem.NilAddr {
			return fmt.Errorf("internal %d: nil child %d", node, i)
		}
		if err := t.validateNode(p, child, depth-1, childLow, childHigh, chain); err != nil {
			return err
		}
		if i < count {
			childLow = t.a.LoadWord(p, t.intKey(node, i))
		}
	}
	return nil
}

func (t *Tree) validateLeaf(p vclock.Proc, leaf simmem.Addr, low, high uint64, chain map[simmem.Addr]bool) error {
	if !chain[leaf] {
		return fmt.Errorf("leaf %d reachable from the root twice or not on the chain", leaf)
	}
	delete(chain, leaf)
	live := map[uint64]bool{} // live key locations (segments first)
	var run []uint64

	segs := t.cfg.Segments
	if t.cfg.Adaptive {
		segs = int(t.a.LoadWord(p, leaf+offSegs))
		if segs != 0 && segs != t.cfg.Segments {
			return fmt.Errorf("leaf %d: %d segments in use, want 0 or %d", leaf, segs, t.cfg.Segments)
		}
	}
	stCount := int(t.a.LoadWord(p, leaf+offStableCount))
	if stCount < 0 || stCount > t.denseCap || (segs != 0 && stCount > t.cfg.StableCap) {
		return fmt.Errorf("leaf %d: run of %d records out of range with %d segments in use", leaf, stCount, segs)
	}
	lo, hi := t.a.LoadWord(p, leaf+offLo), t.a.LoadWord(p, leaf+offHi)
	prev := uint64(0)
	for i := 0; i < stCount; i++ {
		k := t.a.LoadWord(p, t.stableK(leaf, i))
		if i > 0 && k <= prev {
			return fmt.Errorf("leaf %d: stable not sorted at %d (%d after %d)", leaf, i, k, prev)
		}
		if k < lo || k > hi {
			return fmt.Errorf("leaf %d: stable key %d outside its fences [%d, %d]", leaf, k, lo, hi)
		}
		run = append(run, k)
		prev = k
	}
	for j := 0; j < segs; j++ {
		seg := t.segBase(leaf, j)
		count := int(t.a.LoadWord(p, seg))
		if count < 0 || count > t.cfg.SegCap {
			return fmt.Errorf("leaf %d: segment %d count %d out of range", leaf, j, count)
		}
		prev = 0
		for i := 0; i < count; i++ {
			k := t.a.LoadWord(p, seg+simmem.Addr(1+2*i))
			if i > 0 && k <= prev {
				return fmt.Errorf("leaf %d: segment %d not sorted at %d", leaf, j, i)
			}
			if k < lo || k > hi {
				return fmt.Errorf("leaf %d: segment key %d outside its fences [%d, %d]", leaf, k, lo, hi)
			}
			if live[k] {
				return fmt.Errorf("leaf %d: key %d present in two segments", leaf, k)
			}
			if i, _ := slices.BinarySearch(run, k); i%segs != j {
				return fmt.Errorf("leaf %d: key %d in segment %d, its home is segment %d", leaf, k, j, i%segs)
			}
			live[k] = true
			prev = k
		}
	}
	// Stable entries not shadowed and not tombstoned are live too.
	for i := 0; i < stCount; i++ {
		k := t.a.LoadWord(p, t.stableK(leaf, i))
		v := t.a.LoadWord(p, t.stableV(leaf, i))
		if v == tree.Tombstone && segs != t.cfg.Segments {
			return fmt.Errorf("leaf %d: dense leaf holds a tombstone for key %d", leaf, k)
		}
		if v == tree.Tombstone || live[k] {
			continue
		}
		live[k] = true
	}
	ccm := t.ccmAddr(leaf)
	if bits, split := t.a.LoadWord(p, ccm+ccmLockBits), t.a.LoadWord(p, ccm+ccmSplitLock); bits != 0 || split != 0 {
		return fmt.Errorf("leaf %d: CCM locks held at rest (lock bits %b, split lock %d)", leaf, bits, split)
	}
	// Marks must never under-count a partitioned leaf's live keys.
	if t.cfg.CCMMarkBits && segs == t.cfg.Segments {
		perSlot := map[uint]uint64{}
		for k := range live {
			perSlot[t.slotOf(k)]++
		}
		for slot, n := range perSlot {
			got := t.markCount(p, ccm, slot)
			if got < n && got < markSaturation {
				return fmt.Errorf("leaf %d: slot %d marks %d < %d live keys", leaf, slot, got, n)
			}
		}
	}
	// Keys within fences that tile the separators' bounds are in order
	// across leaves too.
	if lo != low || hi != high {
		return fmt.Errorf("leaf %d: fences [%d, %d], the separators bound it to [%d, %d]", leaf, lo, hi, low, high)
	}
	return nil
}
