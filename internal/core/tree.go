package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
)

// Internal nodes use the same conventional layout as the baseline tree —
// the Eunomia redesign targets the leaf layer, where >90% of conflicts
// occur; the interior is protected by the upper HTM region and updated only
// by (rare) splits.
const (
	offCount   = 0 // internal node: number of separators
	offLevel   = 2
	offIntKeys = 8
	metaRoot   = 0
	metaDepth  = 1
	// maxRun bounds a leaf's sorted run in either state, so the in-leaf
	// shift and the scans' segment merge stage on the stack.
	maxRun = 32
	// dirHops is how many right-links locate follows before it descends.
	dirHops = 2
)

// Tree is Euno-B+Tree. Create with New; all methods are safe for concurrent
// use by distinct htm.Threads.
type Tree struct {
	h   *htm.HTM
	a   *simmem.Arena
	cfg Config

	meta simmem.Addr

	// Leaf layout, derived from cfg.
	stableOff int // word offset of the stable region
	segOff    int // word offset of segment 0
	segStride int // words per segment block (line multiple)
	ccmOff    int // word offset of the CCM line
	denseCap  int // records a dense leaf's run holds: the data lines' worth, at most maxRun
	leafWords int
	intWords  int
	nslots    uint
	// scanLeaves is how many adjacent leaves one scan region may read:
	// scanRegionLines over a leaf's lines short of its CCM line.
	scanLeaves int

	// dir is the leaf directory; sepLo and sepHi are the smallest and largest
	// separators a split has made, which place the next one (newDir).
	dir          atomic.Pointer[leafDir]
	sepLo, sepHi atomic.Uint64

	// Diagnostics.
	splits      atomic.Uint64
	compactions atomic.Uint64
	markRejects atomic.Uint64 // get/delete turned away by mark slots
	rootRetries atomic.Uint64 // seqno mismatches forcing retry from root
	maintRounds atomic.Uint64

	// dropSegs, markless, fenceSlack, trustGuess and wrongHome seed bugs
	// for the checker's self-tests: a lossy demotion and a promotion that
	// counts no marks (adapt_test.go), at 1 a split whose left leaf keeps
	// the separator inside its fences, a run search that looks only on the
	// line the fences predict, and at 1 a put that files its copy one
	// segment past its home (dir_test.go).
	dropSegs   bool
	markless   bool
	fenceSlack uint64
	trustGuess bool
	wrongHome  int
}

// New creates an empty Euno-B+Tree with the given configuration.
func New(h *htm.HTM, boot *htm.Thread, cfg Config) *Tree {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	t := &Tree{h: h, a: h.Arena(), cfg: cfg}

	roundLine := func(w int) int {
		return (w + simmem.WordsPerLine - 1) &^ (simmem.WordsPerLine - 1)
	}
	t.stableOff = offLeafData
	if !cfg.PartLeaf {
		// Keep the baseline's conventional co-located header (see leaf.go).
		t.stableOff += convHeaderWords
	}
	t.segOff = roundLine(t.stableOff + 2*cfg.StableCap)
	t.segStride = roundLine(1 + 2*cfg.SegCap)
	t.ccmOff = t.segOff + cfg.Segments*t.segStride
	t.leafWords = t.ccmOff + simmem.WordsPerLine
	t.denseCap = cfg.StableCap // the +Split HTM leaf: its conventional run
	if cfg.PartLeaf {
		t.denseCap = min((t.ccmOff-t.stableOff)/2, maxRun)
	}
	t.scanLeaves = max(1, scanRegionLines*simmem.WordsPerLine/t.ccmOff)
	t.intWords = offIntKeys + 2*cfg.StableCap + 1
	t.nslots = uint(2 * cfg.StableCap)
	if t.nslots > 32 {
		t.nslots = 32
	}

	t.meta = t.a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagTreeMeta)
	root := t.newLeaf(boot.P)
	t.a.StoreWordDirect(boot.P, root+offHi, math.MaxUint64)
	t.a.StoreWordDirect(boot.P, t.meta+metaRoot, uint64(root))
	t.a.StoreWordDirect(boot.P, t.meta+metaDepth, 1)
	t.sepLo.Store(math.MaxUint64)
	t.dir.Store(t.newDir(1, false))
	return t
}

// Name implements tree.KV.
func (t *Tree) Name() string { return "euno-btree" }

// Config returns the active configuration.
func (t *Tree) Config() Config { return t.cfg }

// Splits, Compactions, MarkRejects, RootRetries and MaintRounds expose
// diagnostics.
func (t *Tree) Splits() uint64      { return t.splits.Load() }
func (t *Tree) Compactions() uint64 { return t.compactions.Load() }
func (t *Tree) MarkRejects() uint64 { return t.markRejects.Load() }
func (t *Tree) RootRetries() uint64 { return t.rootRetries.Load() }
func (t *Tree) MaintRounds() uint64 { return t.maintRounds.Load() }

func (t *Tree) newLeaf(p vclock.Proc) simmem.Addr {
	addr := t.a.AllocAligned(p, t.leafWords, simmem.TagKeys)
	t.retagLeaf(addr)
	return addr
}

func (t *Tree) newLeafTx(tx *htm.Tx) simmem.Addr {
	addr := tx.AllocAligned(t.leafWords, simmem.TagKeys)
	t.retagLeaf(addr)
	return addr
}

func (t *Tree) retagLeaf(addr simmem.Addr) {
	t.a.Retag(addr, simmem.WordsPerLine, simmem.TagNodeMeta)
	t.a.Retag(addr+simmem.Addr(t.ccmOff), simmem.WordsPerLine, simmem.TagCCM)
}

func (t *Tree) newInternalTx(tx *htm.Tx) simmem.Addr {
	addr := tx.AllocAligned(t.intWords, simmem.TagKeys)
	t.a.Retag(addr, simmem.WordsPerLine, simmem.TagNodeMeta)
	return addr
}

func (t *Tree) intKey(node simmem.Addr, i int) simmem.Addr {
	return node + simmem.Addr(offIntKeys+i)
}
func (t *Tree) intChild(node simmem.Addr, i int) simmem.Addr {
	return node + simmem.Addr(offIntKeys+t.cfg.StableCap+i)
}

// descend walks from the root to the leaf covering key inside tx; path, if
// not nil, records the split's parent path.
func (t *Tree) descend(tx *htm.Tx, key uint64, path *[]simmem.Addr) simmem.Addr {
	node := simmem.Addr(tx.Load(t.meta + metaRoot))
	depth := tx.Load(t.meta + metaDepth)
	for d := depth; d > 1; d-- {
		if path != nil {
			*path = append(*path, node)
		}
		lo, hi := 0, int(tx.Load(node+offCount))
		for lo < hi {
			mid := (lo + hi) / 2
			if tx.Load(t.intKey(node, mid)) <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		node = simmem.Addr(tx.Load(t.intChild(node, lo)))
	}
	return node
}

// upper executes the upper HTM region (Algorithm 2 lines 23-28): traverse
// the index and sample the target leaf's sequence number — and, from the
// same line, its state, by which the caller decides whether to consult the
// CCM line at all (advisory: the lower region reads the state it acts on).
func (t *Tree) upper(th *htm.Thread, key uint64) (leaf simmem.Addr, s0 uint64, segs int) {
	// Upper-region conflicts happen on interior/meta lines, not the leaf
	// the previous operation annotated — clear the observability node
	// annotation so they attribute to their raw conflict line.
	th.NoteNode(0)
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		leaf = t.descend(tx, key, nil)
		s0 = tx.Load(leaf + offSeqno)
		segs = t.leafSegs(tx, leaf)
	})
	return leaf, s0, segs
}

// leafDir is the tree's leaf directory (DESIGN.md §5.2): a lossy table of
// leaf addresses, 0 for none, key's bucket at ((key-base)>>shift) masked to
// the table. An entry is a guess; the fences its leaf carries check it.
type leafDir struct {
	base  uint64
	shift int
	slots []atomic.Uint64
}

// newDir makes an empty directory for a tree of the given leaves: the power
// of two at least twice as many buckets, spread over the keys between the
// smallest and the largest separator made so far — and, roomy, twice as
// many buckets of that width again, whose cover reaches past the largest
// separator by at least the spread.
func (t *Tree) newDir(leaves uint64, roomy bool) *leafDir {
	size := uint64(2)
	for size < 2*leaves {
		size *= 2
	}
	lo, hi := t.sepLo.Load(), t.sepHi.Load()
	lo = min(lo, hi) // no split yet: no spread
	shift := max(0, bits.Len64(hi-lo)-bits.Len64(size-1))
	if roomy {
		size *= 2
	}
	return &leafDir{base: lo, shift: shift, slots: make([]atomic.Uint64, size)}
}

func (d *leafDir) slot(key uint64) *atomic.Uint64 {
	return &d.slots[(key-d.base)>>d.shift&uint64(len(d.slots)-1)]
}

// above reports whether key lies past the directory's cover, where its
// bucket wraps onto those of the lowest keys.
func (d *leafDir) above(key uint64) bool {
	return key >= d.base && (key-d.base)>>d.shift >= uint64(len(d.slots))
}

// noteSplit counts a committed split at separator sep and swaps in an empty
// directory once the leaves outnumber half the directory's buckets, twice
// the size, or once sep lies past its cover, roomy: an ascending fill
// pushes its separators there, and each roomy directory at least doubles
// the cover, so a fill rebuilds O(log leaves) times either way.
func (t *Tree) noteSplit(sep uint64) {
	for lo := t.sepLo.Load(); sep < lo && !t.sepLo.CompareAndSwap(lo, sep); lo = t.sepLo.Load() {
	}
	for hi := t.sepHi.Load(); sep > hi && !t.sepHi.CompareAndSwap(hi, sep); hi = t.sepHi.Load() {
	}
	leaves := t.splits.Add(1) + 1
	switch d := t.dir.Load(); {
	case leaves > uint64(len(d.slots)/2):
		t.dir.CompareAndSwap(d, t.newDir(leaves, false))
	case d.above(sep):
		t.dir.CompareAndSwap(d, t.newDir(leaves, true))
	}
}

// locate finds key's leaf, seqno and state for a point operation or a
// scan's first leaf: from key's directory bucket when its leaf's fences,
// loaded directly after the seqno, cover key, or when a leaf at most
// dirHops right-links on does (B-link's move right); otherwise by the upper
// region, whose leaf then fills the bucket. A bucket thus settles on the
// leftmost leaf its keys need, and a split's right half is one hop away.
func (t *Tree) locate(th *htm.Thread, key uint64) (simmem.Addr, uint64, int) {
	slot := t.dir.Load().slot(key)
	leaf := simmem.Addr(slot.Load())
	for hop := 0; leaf != simmem.NilAddr && hop <= dirHops; hop++ {
		s0 := t.a.LoadWord(th.P, leaf+offSeqno)
		if key < t.a.LoadWord(th.P, leaf+offLo) {
			break
		}
		if key <= t.a.LoadWord(th.P, leaf+offHi) {
			segs := t.cfg.Segments
			if t.cfg.Adaptive {
				segs = int(t.a.LoadWord(th.P, leaf+offSegs))
			}
			return leaf, s0, segs
		}
		leaf = simmem.Addr(t.a.LoadWord(th.P, leaf+offNext))
	}
	leaf, s0, segs := t.upper(th, key)
	slot.Store(uint64(leaf))
	return leaf, s0, segs
}

// ccmGate decides, per operation, whether the CCM applies: enabled by
// configuration and — when adaptive — only on hot leaves. A dense leaf is a
// cold one that need not even be asked: its CCM line is not read.
func (t *Tree) ccmGate(th *htm.Thread, ccm simmem.Addr, segs int) (useLock, useMark bool) {
	if segs != t.cfg.Segments || (!t.cfg.CCMLockBits && !t.cfg.CCMMarkBits) {
		return false, false
	}
	hot := t.leafHot(th.P, ccm)
	return t.cfg.CCMLockBits && hot, t.cfg.CCMMarkBits && hot
}

// Get implements tree.KV via the two-step traversal of Algorithm 2.
func (t *Tree) Get(th *htm.Thread, key uint64) (uint64, bool) {
	for {
		leaf, s0, segs := t.locate(th, key)
		// The stitch: between here and the lower region the leaf may split,
		// compact, or fill — correctness rests on the re-validation of the
		// seqno and the fences.
		th.Fault(htm.FaultStitch)
		th.NoteStitch(uint64(leaf))
		th.NoteNode(uint64(leaf))
		ccm := t.ccmAddr(leaf)
		slot := t.slotOf(key)
		useLock, useMark := t.ccmGate(th, ccm, segs)
		if useMark && t.markCount(th.P, ccm, slot) == 0 {
			// Mark slots say no key in this leaf hashes here. Validate the
			// leaf is still current (a split could have moved the key);
			// marks never under-count, so a clean seqno proves absence —
			// from the directory too, which loaded it before the fences.
			if t.a.LoadWord(th.P, leaf+offSeqno) == s0 {
				t.markRejects.Add(1)
				return 0, false
			}
			t.rootRetries.Add(1)
			continue
		}
		if useLock {
			th.Fault(htm.FaultCCM)
			t.awaitSlot(th.P, ccm, slot)
		}
		var out outcome
		var val uint64
		before := th.Stats.ConflictAborts()
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			out, val = t.leafGet(tx, leaf, s0, key)
		})
		t.noteConflicts(th, leaf, s0, segs, th.Stats.ConflictAborts()-before)
		switch out {
		case oMismatch:
			t.rootRetries.Add(1)
			continue
		case oFound:
			return val, true
		default:
			return 0, false
		}
	}
}

// Put implements tree.KV.
func (t *Tree) Put(th *htm.Thread, key, val uint64) {
	if val == tree.Tombstone {
		panic("core: the tombstone value is reserved")
	}
	for {
		leaf, s0, segs := t.locate(th, key)
		th.Fault(htm.FaultStitch)
		th.NoteStitch(uint64(leaf))
		th.NoteNode(uint64(leaf))
		ccm := t.ccmAddr(leaf)
		slot := t.slotOf(key)
		useLock, _ := t.ccmGate(th, ccm, segs)
		// Anticipate an insertion into a partitioned leaf: marks are bumped
		// *before* the lower region so a concurrent get can never miss a
		// committed insert (Algorithm 2 line 38). A zero mark count proves
		// the key absent, so the common update path costs only this one
		// load; the rare insert-into-occupied-slot case is detected inside
		// the lower region (oNeedMark) and re-run after pre-incrementing. A
		// leaf sampled dense is not asked: its marks are counted when a
		// rewrite partitions it, and a region that finds it partitioned
		// already says oNeedMark.
		part := segs == t.cfg.Segments
		preMarked := false
		mark := func() {
			t.markAdd(th.P, ccm, slot, +1)
			preMarked = true
		}
		if t.cfg.CCMMarkBits && part && t.markCount(th.P, ccm, slot) == 0 {
			th.Fault(htm.FaultCCM)
			mark()
		}
		if useLock {
			th.Fault(htm.FaultCCM)
			t.lockSlot(th.P, ccm, slot)
		}
		var out outcome
		before := th.Stats.ConflictAborts()
		runLower := func() {
			needMark := t.cfg.CCMMarkBits && !preMarked
			th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
				out = t.leafPut(tx, leaf, s0, key, val, needMark)
			})
		}
		runLower()
		if out == oNeedMark {
			mark()
			runLower()
		}
		if out == oMaint {
			// Locked maintenance: compaction or sort-split-reorganize. The
			// maintenance path may insert, so it needs the mark too.
			if t.cfg.CCMMarkBits && !preMarked && part {
				mark()
			}
			t.maintRounds.Add(1)
			if out = t.leafMaint(th, leaf, s0, segs, key, val, t.cfg.CCMMarkBits && !preMarked); out == oNeedMark {
				mark()
				out = t.leafMaint(th, leaf, s0, segs, key, val, false)
			}
		}
		if preMarked && out != oInserted {
			// Update or retry: the anticipated insert did not materialize.
			t.markAdd(th.P, ccm, slot, -1)
		}
		if useLock {
			t.unlockSlot(th.P, ccm, slot)
		}
		t.noteConflicts(th, leaf, s0, segs, th.Stats.ConflictAborts()-before)
		if out == oMismatch {
			t.rootRetries.Add(1)
			continue
		}
		return
	}
}

// Delete implements tree.KV: on a dense leaf the record is shifted out of
// the run; on a partitioned one it is removed from its segment and/or
// tombstoned in the stable region, and physical cleanup happens at the next
// compaction or split (deletion without rebalancing).
func (t *Tree) Delete(th *htm.Thread, key uint64) bool {
	for {
		leaf, s0, segs := t.locate(th, key)
		th.Fault(htm.FaultStitch)
		th.NoteStitch(uint64(leaf))
		th.NoteNode(uint64(leaf))
		ccm := t.ccmAddr(leaf)
		slot := t.slotOf(key)
		useLock, useMark := t.ccmGate(th, ccm, segs)
		if useMark && t.markCount(th.P, ccm, slot) == 0 {
			if t.a.LoadWord(th.P, leaf+offSeqno) == s0 {
				t.markRejects.Add(1)
				return false
			}
			t.rootRetries.Add(1)
			continue
		}
		if useLock {
			th.Fault(htm.FaultCCM)
			t.lockSlot(th.P, ccm, slot)
		}
		var out outcome
		var tombstoned bool
		var in int // the state the region read: only a partitioned leaf's marks count
		before := th.Stats.ConflictAborts()
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			out, tombstoned, in = t.leafDelete(tx, leaf, s0, key)
		})
		if out == oFound && t.cfg.CCMMarkBits && in == t.cfg.Segments {
			th.Fault(htm.FaultCCM)
			t.markAdd(th.P, ccm, slot, -1)
		}
		if tombstoned &&
			t.a.AddWordDirect(th.P, ccm+ccmTombs, 1) >= t.cfg.RebalanceThreshold {
			// Deferred rebalance (Section 4.2.4): enough deletions have
			// accumulated on this leaf; rewrite it without them.
			t.leafMaint(th, leaf, s0, in, key, tree.Tombstone, false)
			t.a.StoreWordDirect(th.P, ccm+ccmTombs, 0)
		}
		if useLock {
			t.unlockSlot(th.P, ccm, slot)
		}
		t.noteConflicts(th, leaf, s0, segs, th.Stats.ConflictAborts()-before)
		switch out {
		case oMismatch:
			t.rootRetries.Add(1)
			continue
		case oFound:
			return true
		default:
			return false
		}
	}
}

// Depth returns the number of tree levels (diagnostic).
func (t *Tree) Depth(th *htm.Thread) int {
	var d uint64
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		d = tx.Load(t.meta + metaDepth)
	})
	return int(d)
}

// insertUp propagates a (separator, right-child) pair along the recorded
// root-to-parent path, splitting internal nodes and the root as needed —
// identical in shape to the conventional tree, since the interior keeps the
// sorted layout (Section 4.2.3: "the internal nodes are still arranged in
// an ordered way").
func (t *Tree) insertUp(tx *htm.Tx, path []simmem.Addr, sep uint64, child simmem.Addr) {
	F := t.cfg.StableCap
	for i := len(path) - 1; i >= 0; i-- {
		node := path[i]
		count := int(tx.Load(node + offCount))
		if count < F {
			t.insertInternal(tx, node, count, sep, child)
			return
		}
		mid := count / 2
		upKey := tx.Load(t.intKey(node, mid))
		right := t.newInternalTx(tx)
		rc := count - mid - 1
		for j := 0; j < rc; j++ {
			tx.Store(t.intKey(right, j), tx.Load(t.intKey(node, mid+1+j)))
		}
		for j := 0; j <= rc; j++ {
			tx.Store(t.intChild(right, j), tx.Load(t.intChild(node, mid+1+j)))
		}
		tx.Store(right+offCount, uint64(rc))
		tx.Store(right+offLevel, tx.Load(node+offLevel))
		tx.Store(node+offCount, uint64(mid))
		if sep < upKey {
			t.insertInternal(tx, node, mid, sep, child)
		} else {
			t.insertInternal(tx, right, rc, sep, child)
		}
		sep, child = upKey, right
	}
	oldRoot := simmem.Addr(tx.Load(t.meta + metaRoot))
	depth := tx.Load(t.meta + metaDepth)
	newRoot := t.newInternalTx(tx)
	tx.Store(newRoot+offCount, 1)
	tx.Store(newRoot+offLevel, depth)
	tx.Store(t.intKey(newRoot, 0), sep)
	tx.Store(t.intChild(newRoot, 0), uint64(oldRoot))
	tx.Store(t.intChild(newRoot, 1), uint64(child))
	tx.Store(t.meta+metaRoot, uint64(newRoot))
	tx.Store(t.meta+metaDepth, depth+1)
}

func (t *Tree) insertInternal(tx *htm.Tx, node simmem.Addr, count int, sep uint64, child simmem.Addr) {
	pos := 0
	for pos < count && tx.Load(t.intKey(node, pos)) < sep {
		pos++
	}
	for i := count; i > pos; i-- {
		tx.Store(t.intKey(node, i), tx.Load(t.intKey(node, i-1)))
	}
	for i := count + 1; i > pos+1; i-- {
		tx.Store(t.intChild(node, i), tx.Load(t.intChild(node, i-1)))
	}
	tx.Store(t.intKey(node, pos), sep)
	tx.Store(t.intChild(node, pos+1), uint64(child))
	tx.Store(node+offCount, uint64(count+1))
}
