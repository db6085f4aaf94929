package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
)

// Leaf memory layout (word offsets from the leaf base address):
//
//	line 0 (TagNodeMeta):  w0 seqno, w1 next-leaf, w2 run count, w3 the
//	    leaf's state: segments in use, 0 for a dense leaf, Segments for a
//	    partitioned one (leafSegs; kept by an adaptive tree only); w4 and
//	    w5 the fences, the first and last key the leaf covers, written only
//	    by a split, before the seqno it bumps.
//	data lines (TagKeys), stableOff up to the CCM line:
//	  dense leaf: one run of up to denseCap interleaved (key,value) pairs,
//	    sorted by key, searched, updated and shifted in place by the lower
//	    region: every cold leaf of the full tree. It has no conventional
//	    header (the +Split HTM leaf's alone, see convHeaderWords).
//	  partitioned leaf: the run is the stable region, StableCap pairs,
//	    rewritten only by leafMaint, under the leaf's advisory lock (a delete
//	    aside, which tombstones in place — a dense leaf's shifts its run and
//	    leaves none), so it rarely conflicts (the
//	    paper's "reserved keys will not be updated and inserted
//	    frequently"); then Segments line-aligned
//	    blocks, each [count, k0,v0, k1,v1, ...], sorted within the block;
//	    all puts land here, in the block that the key's stable slot or
//	    insertion point i names (i % Segments), so writers of neighbouring
//	    keys touch different cache lines.
//	CCM line (TagCCM): see ccm.go. Accessed inside a transaction only by
//	    the rewrites that count marks (addMarks, initMarks).
//
// In a partitioned leaf a key may transiently exist both in a segment and
// in the stable region: a put that finds its key only in the stable region
// inserts a *shadow* copy into a segment instead of writing the stable line
// (keeping hot updates scattered). A segment copy wins over the stable one;
// scanLeaf, the one reader of a leaf's records, merges with segment
// priority. Every other lower region reads one segment only, the key's
// home: the stable run of a partitioned leaf changes only in writeLeaf,
// which empties every segment in the same region, and a tombstone moves no
// index, so a key's stable position — and with it its home — is fixed for
// as long as any segment holds a copy of it.
//
// A leaf is born dense; noteConflicts promotes it and writeLeaf, under the
// leaf lock, picks the state again at every rewrite — an overflow, a
// promotion or a rebalance, all leafMaint (DESIGN.md §5.2). Every lower
// region reads the state inside its own transaction, so none acts on the
// wrong layout; what the upper region samples only decides whether the CCM
// line is consulted, which was always advisory. Marks are kept on
// partitioned leaves only: the rewrite that partitions a dense leaf adds
// its records to them, and a demotion moves the seqno (leafMaintBody).
const (
	offSeqno       = 0
	offNext        = 1
	offStableCount = 2
	offSegs        = 3
	offLo          = 4
	offHi          = 5
	offLeafData    = 8
	// convHeaderWords reserves the conventional in-node version/status
	// header at the head of the key area in the unpartitioned (+Split HTM)
	// configuration, which keeps the baseline's leaf layout: the header
	// shares a cache line with the first keys and is bumped on every
	// modification. The partitioned layout removes it — that removal is
	// part of what "+Part Leaf" buys in Figure 13.
	convHeaderWords = 2
)

// outcome is the result of one lower-region attempt.
type outcome int

const (
	oMismatch outcome = iota // seqno changed: retry from the root
	oUpdated                 // put: key existed, value replaced
	oInserted                // put: key was absent (or deleted), now present
	oFound                   // get/delete: key present
	oAbsent                  // get/delete: key not present
	oMaint                   // put: segment space exhausted; take the locked maintenance path
	oNeedMark                // put: would insert but the mark slot was not pre-incremented
)

func (t *Tree) stableK(leaf simmem.Addr, i int) simmem.Addr {
	return leaf + simmem.Addr(t.stableOff+2*i)
}
func (t *Tree) stableV(leaf simmem.Addr, i int) simmem.Addr {
	return leaf + simmem.Addr(t.stableOff+2*i+1)
}

// bumpConvHeader updates the conventional co-located node version in the
// unpartitioned configuration; a no-op for partitioned leaves.
func (t *Tree) bumpConvHeader(tx *htm.Tx, leaf simmem.Addr) {
	if t.cfg.PartLeaf {
		return
	}
	v := leaf + offLeafData
	tx.Store(v, tx.Load(v)+1)
}
func (t *Tree) segBase(leaf simmem.Addr, j int) simmem.Addr {
	return leaf + simmem.Addr(t.segOff+j*t.segStride)
}
func (t *Tree) ccmAddr(leaf simmem.Addr) simmem.Addr {
	return leaf + simmem.Addr(t.ccmOff)
}

// segment pair i lives at [base+1+2i] (key) and [base+2+2i] (value).

// leafSegs reads the leaf's state inside a region: the number of segments
// in use, 0 for a dense leaf. Only an adaptive tree has dense leaves and
// keeps the word; the others load nothing.
func (t *Tree) leafSegs(tx *htm.Tx, leaf simmem.Addr) int {
	if !t.cfg.Adaptive {
		return t.cfg.Segments
	}
	return int(tx.Load(leaf + offSegs))
}

// stableSearch searches the leaf's sorted run — a dense run, a stable
// region, the +Split HTM run — for the first pair with a key >= key, and
// reports whether that key is key (tombstones count as present — the caller
// inspects the value). It loads the first and last key of the line
// guessLine predicts and bisects only the part of the run on key's side of
// them: on evenly spread keys, that line alone.
func (t *Tree) stableSearch(tx *htm.Tx, leaf simmem.Addr, key uint64) (int, bool) {
	count := int(tx.Load(leaf + offStableCount))
	lo, hi := 0, count
	if first, last, ok := t.guessLine(tx, leaf, key, count); ok {
		for _, i := range [2]int{first, last} {
			if k := tx.Load(t.stableK(leaf, i)); k == key {
				return i, true
			} else if k > key {
				hi = i
				break
			}
			lo = i + 1
		}
		if t.trustGuess { // the seeded bug: a key off the predicted line is not looked for
			lo, hi = max(lo, first), min(hi, last+1)
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		switch k := tx.Load(t.stableK(leaf, mid)); {
		case k < key:
			lo = mid + 1
		case k > key:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// guessLine returns the first and last pair of the line of the leaf's run
// of count pairs that its fences predict holds key: the line of pair
// (key-lo)·count/(hi-lo+1). It predicts nothing (ok false) for a run on one
// line or the rightmost leaf (hi = MaxUint64). No pair straddles a line:
// the run starts at an even word.
func (t *Tree) guessLine(tx *htm.Tx, leaf simmem.Addr, key uint64, count int) (first, last int, ok bool) {
	const line = simmem.WordsPerLine
	if count == 0 || t.stableOff/line == (t.stableOff+2*count-1)/line {
		return 0, 0, false
	}
	lo, hi := tx.Load(leaf+offLo), tx.Load(leaf+offHi)
	if hi == math.MaxUint64 {
		return 0, 0, false
	}
	h, l := bits.Mul64(min(max(key, lo), hi)-lo, uint64(count))
	g, _ := bits.Div64(h, l, hi-lo+1)
	w := (t.stableOff + 2*int(g)) &^ (line - 1)
	return max(0, (w-t.stableOff)/2), min(count-1, (w+line-1-t.stableOff)/2), true
}

// segSearch looks for key in segment j. It prunes with the first/last
// comparison the paper describes, then scans the (short, sorted) segment.
// Returns the index within the segment and whether it matched.
func (t *Tree) segSearch(tx *htm.Tx, seg simmem.Addr, key uint64) (idx, count int, found bool) {
	count = int(tx.Load(seg))
	if count == 0 {
		return 0, 0, false
	}
	first := tx.Load(seg + 1)
	if key < first {
		return 0, count, false
	}
	last := tx.Load(seg + simmem.Addr(1+2*(count-1)))
	if key > last {
		return count, count, false
	}
	for i := 0; i < count; i++ {
		k := tx.Load(seg + simmem.Addr(1+2*i))
		if k == key {
			return i, count, true
		}
		if k > key {
			return i, count, false
		}
	}
	return count, count, false
}

// segInsertAt shifts segment j's pairs right from idx and installs the new
// record, keeping the segment sorted.
func (t *Tree) segInsertAt(tx *htm.Tx, seg simmem.Addr, idx, count int, key, val uint64) {
	for i := count; i > idx; i-- {
		tx.Store(seg+simmem.Addr(1+2*i), tx.Load(seg+simmem.Addr(1+2*(i-1))))
		tx.Store(seg+simmem.Addr(2+2*i), tx.Load(seg+simmem.Addr(2+2*(i-1))))
	}
	tx.Store(seg+simmem.Addr(1+2*idx), key)
	tx.Store(seg+simmem.Addr(2+2*idx), val)
	tx.Store(seg, uint64(count+1))
}

// segRemoveAt shifts segment j's pairs left over idx.
func (t *Tree) segRemoveAt(tx *htm.Tx, seg simmem.Addr, idx, count int) {
	for i := idx; i < count-1; i++ {
		tx.Store(seg+simmem.Addr(1+2*i), tx.Load(seg+simmem.Addr(1+2*(i+1))))
		tx.Store(seg+simmem.Addr(2+2*i), tx.Load(seg+simmem.Addr(2+2*(i+1))))
	}
	tx.Store(seg, uint64(count-1))
}

// segOf is the home of a key whose stable search returned i on a leaf with
// segs segments in use: the one segment that may hold its copy.
func (t *Tree) segOf(leaf simmem.Addr, i, segs int) simmem.Addr {
	return t.segBase(leaf, i%segs)
}

// stitched is the lower region's re-validation of what the descent or the
// directory found — the leaf still reads the sampled seqno and its fences
// hold key — the load-bearing check of the whole split-region protocol. The
// DisableSeqnoCheck escape hatch turns it off, fences included; it exists
// only for the checker's mutation self-test (a checker that cannot reject a
// known-broken tree proves nothing) and must never be set outside tests.
func (t *Tree) stitched(tx *htm.Tx, leaf simmem.Addr, s0, key uint64) bool {
	return t.cfg.DisableSeqnoCheck ||
		tx.Load(leaf+offSeqno) == s0 && tx.Load(leaf+offLo) <= key && key <= tx.Load(leaf+offHi)
}

// leafGet searches the leaf inside the lower region.
func (t *Tree) leafGet(tx *htm.Tx, leaf simmem.Addr, s0, key uint64) (outcome, uint64) {
	if !t.stitched(tx, leaf, s0, key) {
		return oMismatch, 0
	}
	segs := t.leafSegs(tx, leaf)
	idx, found := t.stableSearch(tx, leaf, key)
	if segs != 0 {
		seg := t.segOf(leaf, idx, segs)
		if i, _, ok := t.segSearch(tx, seg, key); ok {
			return oFound, tx.Load(seg + simmem.Addr(2+2*i))
		}
	}
	if found {
		v := tx.Load(t.stableV(leaf, idx))
		if v == tree.Tombstone {
			return oAbsent, 0
		}
		return oFound, v
	}
	return oAbsent, 0
}

// leafPut performs the lower region of a put (Algorithm 2 lines 41-51 plus
// Algorithm 3's scheduler, which here places the record in its key's home
// segment, segOf: two puts of one key meet in one segment line, so neither
// can add a second copy).
//
// needMark is set when mark slots are enabled but the caller has not
// pre-incremented this key's slot: in that case an insertion into a
// partitioned leaf must not be committed (return oNeedMark instead),
// because a mark increment published only after the commit would open a
// window in which the absent-key fast path misses a committed record.
// Updates never need the mark, and neither does a dense leaf, whose marks
// nothing consults until the rewrite that partitions it counts them.
func (t *Tree) leafPut(tx *htm.Tx, leaf simmem.Addr, s0, key, val uint64, needMark bool) outcome {
	if !t.stitched(tx, leaf, s0, key) {
		return oMismatch
	}
	segs := t.leafSegs(tx, leaf)
	stIdx, inStable := t.stableSearch(tx, leaf, key)
	var seg simmem.Addr
	var idx, used int
	if segs != 0 {
		// Update in place if the home segment holds the key (newest copy).
		seg = t.segOf(leaf, stIdx+t.wrongHome, segs) // the seeded bug: one segment past the home
		var found bool
		if idx, used, found = t.segSearch(tx, seg, key); found {
			tx.Store(seg+simmem.Addr(2+2*idx), val)
			return oUpdated
		}
	}
	done := oInserted // what storing the record makes of this put
	if inStable && tx.Load(t.stableV(leaf, stIdx)) != tree.Tombstone {
		done = oUpdated
	}
	if done == oInserted && needMark && segs == t.cfg.Segments {
		// A genuine insertion into a partitioned leaf requires the mark
		// pre-increment; a shadow copy of a live key is an update as far
		// as the filter goes, and a dense leaf keeps no marks.
		return oNeedMark
	}
	if segs == 0 {
		// A dense leaf, or the +Split HTM configuration's conventional
		// sorted leaf: the run is updated and shifted in place.
		if inStable {
			tx.Store(t.stableV(leaf, stIdx), val)
			t.bumpConvHeader(tx, leaf)
			return done
		}
		count := int(tx.Load(leaf + offStableCount))
		if count == t.denseCap {
			return oMaint
		}
		moveRun(tx, t.stableK(leaf, stIdx), t.stableK(leaf, stIdx+1), 2*(count-stIdx))
		tx.Store(t.stableK(leaf, stIdx), key)
		tx.Store(t.stableV(leaf, stIdx), val)
		tx.Store(leaf+offStableCount, uint64(count+1))
		t.bumpConvHeader(tx, leaf)
		return oInserted
	}
	// Partitioned leaf: the record goes to its home segment (a shadow copy
	// if a live stable copy exists; it wins over that one).
	if used >= t.cfg.SegCap {
		return oMaint
	}
	t.segInsertAt(tx, seg, idx, used, key, val)
	return done
}

// leafDelete performs the lower region of a delete. On a dense leaf it
// removes the pair by shifting the run left over it, as a dense insert
// shifts right, so a dense leaf holds no tombstone. Otherwise it removes a
// segment copy and tombstones any live stable copy (both must go, or a
// stale stable value would resurrect). Rebalancing is deferred (Section
// 4.2.4): tombstones are physically dropped at the next compaction or
// split, and a delete that pushes the leaf past the rebalance threshold
// triggers one (see Tree.Delete). tombstoned reports whether a stable entry
// was marked; segs is the state the region read.
func (t *Tree) leafDelete(tx *htm.Tx, leaf simmem.Addr, s0, key uint64) (out outcome, tombstoned bool, segs int) {
	if !t.stitched(tx, leaf, s0, key) {
		return oMismatch, false, 0
	}
	segs = t.leafSegs(tx, leaf)
	idx, found := t.stableSearch(tx, leaf, key)
	if segs != t.cfg.Segments {
		if !found {
			return oAbsent, false, segs
		}
		count := int(tx.Load(leaf + offStableCount))
		moveRun(tx, t.stableK(leaf, idx+1), t.stableK(leaf, idx), 2*(count-idx-1))
		tx.Store(leaf+offStableCount, uint64(count-1))
		t.bumpConvHeader(tx, leaf)
		return oFound, false, segs
	}
	removed := false
	if segs != 0 {
		seg := t.segOf(leaf, idx, segs)
		if i, count, ok := t.segSearch(tx, seg, key); ok {
			t.segRemoveAt(tx, seg, i, count)
			removed = true
		}
	}
	if found {
		if tx.Load(t.stableV(leaf, idx)) != tree.Tombstone {
			tx.Store(t.stableV(leaf, idx), tree.Tombstone)
			t.bumpConvHeader(tx, leaf)
			removed = true
			tombstoned = true
		}
	}
	if removed {
		return oFound, tombstoned, segs
	}
	return oAbsent, false, segs
}

// moveRun moves the n words of a run at src to dst, one pair along: every
// word that moves is loaded before any is stored, since a load issued after
// a store has the write set to probe.
func moveRun(tx *htm.Tx, src, dst simmem.Addr, n int) {
	var moved [2 * maxRun]uint64
	for i := n; i > 0; i-- {
		moved[i-1] = tx.Load(src + simmem.Addr(i-1))
	}
	for i := n; i > 0; i-- {
		tx.Store(dst+simmem.Addr(i-1), moved[i-1])
	}
}

// pair is a thread-local staging record.
type pair struct{ k, v uint64 }

// scanLeaf is the one reader of a leaf's records, for scans and for every
// rewrite: it appends to out, in key order, the live records with key >=
// from of the leaf whose first inUse segments are in use (segment copies
// shadow stable ones; tombstones dropped), stopping once out holds limit
// records. The at most Segments×SegCap (validate: under 32) segment records
// >= from are insertion-merged on the stack and then merged with the stable
// run from its first key >= from (stableSearch; from 0 needs no search),
// so it loads no value below from and no stable pair past the limit. A dense
// leaf is the run alone.
func (t *Tree) scanLeaf(tx *htm.Tx, leaf simmem.Addr, inUse int, from uint64, out []pair, limit int) []pair {
	var segs [maxRun]pair
	n := 0
	for j := 0; j < inUse; j++ {
		seg := t.segBase(leaf, j)
		for i, count := 0, int(tx.Load(seg)); i < count; i++ {
			k := tx.Load(seg + simmem.Addr(1+2*i))
			if k < from {
				continue
			}
			m := n
			for ; m > 0 && segs[m-1].k > k; m-- {
				segs[m] = segs[m-1]
			}
			segs[m] = pair{k, tx.Load(seg + simmem.Addr(2+2*i))}
			n++
		}
	}
	count, i := int(tx.Load(leaf+offStableCount)), 0
	if from > 0 {
		i, _ = t.stableSearch(tx, leaf, from)
	}
	for s := 0; len(out) < limit; i++ {
		if i == count {
			return append(out, segs[s:min(n, s+limit-len(out))]...)
		}
		k := tx.Load(t.stableK(leaf, i))
		for ; s < n && segs[s].k < k && len(out) < limit; s++ {
			out = append(out, segs[s])
		}
		if len(out) == limit {
			break
		}
		if s < n && segs[s].k == k {
			out = append(out, segs[s]) // shadows the stable copy
			s++
		} else if v := tx.Load(t.stableV(leaf, i)); v != tree.Tombstone {
			out = append(out, pair{k, v})
		}
	}
	return out
}

// rewriteCap is how many records a rewrite may leave in one leaf. A cold
// leaf comes out dense. A hot one comes out partitioned, so they must fit
// its stable region — and, on an adaptive tree, its segments: once every
// record has its shadow copy a hot leaf stops compacting, while one record
// more has it compact again every few updates.
func (t *Tree) rewriteCap(hot bool) int {
	switch {
	case !hot:
		return t.denseCap
	case t.cfg.Adaptive:
		return min(t.cfg.StableCap, t.cfg.Segments*t.cfg.SegCap)
	}
	return t.cfg.StableCap
}

// partitions is the state writeLeaf picks for n records: partitioned when
// the leaf is hot and they fit the stable region (always, without
// Adaptive); dense otherwise — which is how a leaf that cooled is demoted,
// and why half of a split may stay dense on a hot leaf until the next abort
// promotes it.
func (t *Tree) partitions(hot bool, n int) bool {
	return hot && n <= t.cfg.StableCap
}

// writeLeaf rewrites the leaf as the given sorted records in the state
// partitions picks, with every segment cleared if partitioned.
func (t *Tree) writeLeaf(tx *htm.Tx, leaf simmem.Addr, recs []pair, hot bool) {
	t.bumpConvHeader(tx, leaf)
	for i, r := range recs {
		tx.Store(t.stableK(leaf, i), r.k)
		tx.Store(t.stableV(leaf, i), r.v)
	}
	tx.Store(leaf+offStableCount, uint64(len(recs)))
	segs := 0
	if t.partitions(hot, len(recs)) {
		segs = t.cfg.Segments
		for j := 0; j < segs; j++ {
			tx.Store(t.segBase(leaf, j), 0)
		}
	}
	if t.cfg.Adaptive {
		tx.Store(leaf+offSegs, uint64(segs))
	}
}

// leafMaint is the one locked rewrite of a leaf: it takes the leaf's
// advisory lock and in one lower region merges segments and run (Figure
// 6b/6c — moveToReserved + shrinkSegs) or, if the records no longer fit one
// leaf, performs the sort-split-reorganize of Figure 7 (Algorithm 3 lines
// 67-86). A put that found no room calls it with its record and gets the
// put's final outcome — oNeedMark, with nothing stored, when needMark is
// set and the put would insert into a leaf the region reads partitioned
// (leafPut's rule). A promotion and the deferred rebalance of Section
// 4.2.4 call it with nothing to put — val is then the tombstone, which no
// put carries — and such a rewrite stores nothing once the leaf's state
// differs from seen, the state its caller found the leaf in: someone else
// rewrote it meanwhile and did what was asked — a promotion partitioned it,
// and any rewrite dropped its tombstones.
//
// A transient staging buffer is allocated from the arena with TagReserved
// for the duration of the reorganization and freed afterwards — this is the
// paper's "reserved keys" footprint measured in Section 5.7 (the merge
// itself stages through thread-local memory).
func (t *Tree) leafMaint(th *htm.Thread, leaf simmem.Addr, s0 uint64, seen int, key, val uint64, needMark bool) outcome {
	var out outcome
	var compacted bool
	var sep uint64
	var staging simmem.Addr
	var stagingWords int
	ccm := t.ccmAddr(leaf)
	t.lockLeaf(th.P, ccm)
	score := t.leafScore(th.P, ccm)
	sc := t.borrowScratch(th)
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		staging, stagingWords = simmem.NilAddr, 0
		out, compacted, sep = t.leafMaintBody(tx, sc, leaf, s0, seen, key, val, needMark, score, &staging, &stagingWords)
	})
	sc.lent = false
	if staging != simmem.NilAddr {
		t.a.Free(th.P, staging, stagingWords, simmem.TagReserved)
	}
	t.unlockLeaf(th.P, ccm)
	if compacted {
		t.compactions.Add(1)
	}
	if sep != 0 {
		t.noteSplit(sep)
	}
	return out
}

// leafMaintBody is leafMaint's region; sep is the separator of the split it
// made, 0 if it made none (a split's right half never starts at key 0).
//
// The marks follow the state (DESIGN.md §5.2). A leaf the region reads
// dense and writes partitioned has its records added to its marks
// (addMarks), before the state word that makes gets consult them; a
// split's right half that comes out partitioned is counted afresh
// (initMarks). A leaf the region reads partitioned and compacts dense gets
// a new seqno after its state word: a get or delete that read its mark
// while the leaf was partitioned finds the seqno changed if the leaf
// stopped being so, and dense inserts add no mark.
func (t *Tree) leafMaintBody(tx *htm.Tx, sc *threadScratch, leaf simmem.Addr, s0 uint64, seen int, key, val uint64, needMark bool, score uint64, staging *simmem.Addr, stagingWords *int) (out outcome, compacted bool, sep uint64) {
	if tx.Load(leaf+offSeqno) != s0 {
		return oMismatch, false, 0
	}
	put := val != tree.Tombstone
	segs := t.leafSegs(tx, leaf)
	if !put && segs != seen {
		return oAbsent, false, 0 // rewritten by someone else meanwhile
	}
	part := segs == t.cfg.Segments // the state read, which the marks follow
	hot := t.staysPart(score, segs)
	if t.dropSegs && !hot {
		segs = 0 // the seeded bug: a demotion that reads the leaf as dense already
	}
	recs := t.scanLeaf(tx, leaf, segs, 0, sc.buf[:0], max(t.leafCap(), t.denseCap))
	out = oInserted
	if put {
		// The scratch has room for the one record more.
		i, found := slices.BinarySearchFunc(recs, key, func(r pair, k uint64) int { return cmp.Compare(r.k, k) })
		if found {
			recs[i].v = val
			out = oUpdated
		} else if needMark && part {
			return oNeedMark, false, 0
		} else {
			recs = slices.Insert(recs, i, pair{key, val})
		}
	}
	// promote adds the records a half of the rewrite keeps to its marks
	// when it turns the leaf partitioned.
	promote := func(recs []pair) {
		if t.cfg.CCMMarkBits && !part && t.partitions(hot, len(recs)) {
			t.addMarks(tx, leaf, recs)
		}
	}

	// Model the reserved-keys allocation for the reorganize (a rewrite with
	// nothing to put may find the leaf empty).
	if *stagingWords = 2 * len(recs); *stagingWords > 0 {
		*staging = tx.AllocAligned(*stagingWords, simmem.TagReserved)
	}

	if len(recs) <= t.rewriteCap(hot) {
		// Compaction suffices (Figure 6c): everything fits the run;
		// segments empty out for new concurrent insertions. Leaf membership
		// is unchanged, so seqno stays — concurrent two-step operations
		// remain valid — unless the leaf comes out demoted.
		if !put {
			// A promotion or a rebalance rewrites the leaf under them as a
			// split does: an injected abort must discard it wholesale.
			tx.Fault(htm.FaultMidSplit)
		}
		promote(recs)
		t.writeLeaf(tx, leaf, recs, hot)
		if part && !t.partitions(hot, len(recs)) {
			tx.Store(leaf+offSeqno, s0+1) // a demotion
		}
		return out, true, 0
	}
	// Split (Figure 7): re-traverse from the root *inside this
	// transaction* so the parent path is consistent with the split.
	if !put {
		key = recs[0].k // nothing to put: descend by a key of the leaf's own
	}
	sc.path = sc.path[:0]
	if t.descend(tx, key, &sc.path) != leaf {
		return oMismatch, false, 0
	}
	// Structural modification begins: an injected abort here must discard
	// the half-built split wholesale.
	tx.Fault(htm.FaultMidSplit)
	half := len(recs) / 2
	sep = recs[half].k
	right := t.newLeafTx(tx)
	promote(recs[:half])
	t.writeLeaf(tx, leaf, recs[:half], hot)
	t.writeLeaf(tx, right, recs[half:], hot)
	if t.cfg.CCMMarkBits && t.partitions(hot, len(recs)-half) {
		t.initMarks(tx, right, recs[half:])
	}
	// The commit writes back in first-store order, and the directory's direct
	// probe loads a leaf's seqno, then its fences, then next (locate): so
	// the right leaf's marks go before the link to it, and the fences
	// before the seqno.
	tx.Store(right+offNext, tx.Load(leaf+offNext))
	tx.Store(leaf+offNext, uint64(right))
	tx.Store(right+offLo, sep)
	tx.Store(right+offHi, tx.Load(leaf+offHi))
	tx.Store(leaf+offHi, sep-1+t.fenceSlack)
	tx.Store(leaf+offSeqno, s0+1)
	t.insertUp(tx, sc.path, sep, right)
	return out, false, sep
}

// initMarks computes the new (unpublished) right leaf's counting marks
// inside the split transaction.
func (t *Tree) initMarks(tx *htm.Tx, leaf simmem.Addr, recs []pair) {
	t.storeMarks(tx, leaf, [2]uint64{}, recs)
}

// addMarks adds recs to the counting marks of a leaf that a rewrite turns
// partitioned, inside that rewrite's region. The marks are added to, never
// overwritten: a put's +1 or a delete's −1 still in flight from an earlier
// partitioned period then finds its pair where it left it.
func (t *Tree) addMarks(tx *htm.Tx, leaf simmem.Addr, recs []pair) {
	if t.markless { // the seeded bug: a promotion that counts nothing
		return
	}
	ccm := t.ccmAddr(leaf)
	t.storeMarks(tx, leaf, [2]uint64{tx.Load(ccm + ccmMarks0), tx.Load(ccm + ccmMarks1)}, recs)
}

// storeMarks stores words, the leaf's mark words, with recs counted in
// (saturating).
func (t *Tree) storeMarks(tx *htm.Tx, leaf simmem.Addr, words [2]uint64, recs []pair) {
	for _, r := range recs {
		slot := t.slotOf(r.k)
		w, shift := slot/16, (slot%16)*4
		if (words[w]>>shift)&0xf < markSaturation {
			words[w] += 1 << shift
		}
	}
	ccm := t.ccmAddr(leaf)
	tx.Store(ccm+ccmMarks0, words[0])
	tx.Store(ccm+ccmMarks1, words[1])
}

// leafCap is the maximum number of live records a leaf can hold.
func (t *Tree) leafCap() int {
	return t.cfg.StableCap + t.cfg.Segments*t.cfg.SegCap
}
