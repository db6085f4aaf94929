// Package htmtree implements the paper's baseline: a conventional
// concurrent B+Tree whose every operation runs inside a single monolithic
// HTM region (Algorithm 1), the design used by DBX, DrTM and related
// in-memory databases.
//
// The layout is deliberately "conventional": keys are stored sorted and
// consecutive, so neighboring records share cache lines (the source of the
// paper's false conflicts); every node has a metadata line holding its key
// count, and the tree root/depth live on one shared metadata line that every
// operation reads and every root split writes (the shared-metadata conflict
// source). Under low contention the single coarse region is simple and
// fast; under contention it exhibits exactly the abort profile of Figures 1
// and 2.
package htmtree

import (
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// Node layout, in words from the node base address. Line 0 is the node's
// metadata line (tag TagNodeMeta); payload starts on line 1 (tag TagKeys).
//
// Words 8 and 9 are the *conventional in-node header*: a node version and
// a status word, updated on every modification, sitting at the head of the
// key array as in ordinary B+Tree implementations ("a conventional B+Tree
// inherently contains pervasive shared variables... e.g. number of layers
// and version number of nodes", Section 2.3). Because they share a cache
// line with the first keys, every put invalidates the line every search
// probes — the dominant false-conflict source in the paper's Figure 2.
const (
	offCount   = 0  // number of keys stored
	offNext    = 1  // leaves: address of the next leaf (0 = none)
	offLevel   = 2  // 0 for leaves, >0 for internal nodes
	offNodeVer = 8  // conventional node version, bumped on every modification
	offStatus  = 9  // conventional node status word
	offData    = 10 // keys begin here, same cache line as the header
)

// Tree-global metadata line layout (tag TagTreeMeta).
const (
	metaRoot  = 0
	metaDepth = 1 // number of levels; 1 = the root is a leaf
)

// Tree is the monolithic-transaction HTM-B+Tree.
type Tree struct {
	h      *htm.HTM
	a      *simmem.Arena
	fanout int
	meta   simmem.Addr
}

// New creates an empty tree with the given leaf/internal fanout (maximum
// keys per node). The boot thread is only used for initial allocation.
func New(h *htm.HTM, boot *htm.Thread, fanout int) *Tree {
	if fanout < 4 {
		panic("htmtree: fanout must be at least 4")
	}
	t := &Tree{h: h, a: h.Arena(), fanout: fanout}
	t.meta = t.a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagTreeMeta)
	root := t.newNode(boot.P, true)
	t.a.StoreWordDirect(boot.P, t.meta+metaRoot, uint64(root))
	t.a.StoreWordDirect(boot.P, t.meta+metaDepth, 1)
	return t
}

// Name implements tree.KV.
func (t *Tree) Name() string { return "htm-btree" }

// Fanout returns the node fanout.
func (t *Tree) Fanout() int { return t.fanout }

// leafWords and internalWords are the allocation sizes.
func (t *Tree) leafWords() int     { return offData + 2*t.fanout }
func (t *Tree) internalWords() int { return offData + 2*t.fanout + 1 }

func (t *Tree) keyOff(i int) simmem.Addr   { return simmem.Addr(offData + i) }
func (t *Tree) valOff(i int) simmem.Addr   { return simmem.Addr(offData + t.fanout + i) }
func (t *Tree) childOff(i int) simmem.Addr { return simmem.Addr(offData + t.fanout + i) }

// newNode allocates a node outside any transaction (boot path).
func (t *Tree) newNode(p vclock.Proc, leaf bool) simmem.Addr {
	n := t.leafWords()
	if !leaf {
		n = t.internalWords()
	}
	addr := t.a.AllocAligned(p, n, simmem.TagKeys)
	t.a.Retag(addr, simmem.WordsPerLine, simmem.TagNodeMeta)
	return addr
}

// newNodeTx allocates a node inside a transaction (split path); the
// allocation is rolled back if the attempt aborts.
func (t *Tree) newNodeTx(tx *htm.Tx, leaf bool) simmem.Addr {
	n := t.leafWords()
	if !leaf {
		n = t.internalWords()
	}
	addr := tx.AllocAligned(n, simmem.TagKeys)
	t.a.Retag(addr, simmem.WordsPerLine, simmem.TagNodeMeta)
	return addr
}

// findLeaf walks from the root to the leaf covering key, recording the
// internal-node path (root first) into path, and returns the leaf.
func (t *Tree) findLeaf(tx *htm.Tx, key uint64, path *[]simmem.Addr) simmem.Addr {
	node := simmem.Addr(tx.Load(t.meta + metaRoot))
	depth := tx.Load(t.meta + metaDepth)
	for d := depth; d > 1; d-- {
		if path != nil {
			*path = append(*path, node)
		}
		node = t.findChild(tx, node, key)
	}
	return node
}

// findChild selects the child of an internal node covering key: the child
// index equals the number of separators <= key.
func (t *Tree) findChild(tx *htm.Tx, node simmem.Addr, key uint64) simmem.Addr {
	count := int(tx.Load(node + offCount))
	lo, hi := 0, count // find first separator > key
	for lo < hi {
		mid := (lo + hi) / 2
		if tx.Load(node+t.keyOff(mid)) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return simmem.Addr(tx.Load(node + t.childOff(lo)))
}

// leafSearch finds the position of key in a leaf: the index of the first
// key >= key, and whether it is an exact match.
func (t *Tree) leafSearch(tx *htm.Tx, leaf simmem.Addr, key uint64) (int, bool) {
	count := int(tx.Load(leaf + offCount))
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		if tx.Load(leaf+t.keyOff(mid)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < count && tx.Load(leaf+t.keyOff(lo)) == key {
		return lo, true
	}
	return lo, false
}

// Get implements tree.KV.
func (t *Tree) Get(th *htm.Thread, key uint64) (uint64, bool) {
	var val uint64
	var ok bool
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		val, ok = 0, false
		leaf := t.findLeaf(tx, key, nil)
		if idx, found := t.leafSearch(tx, leaf, key); found {
			val = tx.Load(leaf + t.valOff(idx))
			ok = true
		}
	})
	return val, ok
}

// Put implements tree.KV: update in place if the key exists, insert
// (splitting as needed) otherwise — all in one HTM region.
func (t *Tree) Put(th *htm.Thread, key, val uint64) {
	path := make([]simmem.Addr, 0, 12)
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		path = path[:0]
		leaf := t.findLeaf(tx, key, &path)
		idx, found := t.leafSearch(tx, leaf, key)
		if found {
			tx.Store(leaf+t.valOff(idx), val)
			t.bumpVersion(tx, leaf)
			return
		}
		if int(tx.Load(leaf+offCount)) == t.fanout {
			tx.Fault(htm.FaultMidSplit)
			right, sep := t.splitLeaf(tx, leaf)
			t.insertUp(tx, path, sep, right)
			if key >= sep {
				leaf = right
			}
			idx, _ = t.leafSearch(tx, leaf, key)
		}
		t.insertAt(tx, leaf, idx, key, val)
	})
}

// bumpVersion updates the conventional in-node header after a
// modification, as ordinary B+Tree code does.
func (t *Tree) bumpVersion(tx *htm.Tx, node simmem.Addr) {
	tx.Store(node+offNodeVer, tx.Load(node+offNodeVer)+1)
}

// insertAt shifts the sorted key/value arrays right and installs the new
// record — the consecutive-layout write the paper's false-conflict analysis
// centres on.
func (t *Tree) insertAt(tx *htm.Tx, leaf simmem.Addr, idx int, key, val uint64) {
	count := int(tx.Load(leaf + offCount))
	for i := count; i > idx; i-- {
		tx.Store(leaf+t.keyOff(i), tx.Load(leaf+t.keyOff(i-1)))
		tx.Store(leaf+t.valOff(i), tx.Load(leaf+t.valOff(i-1)))
	}
	tx.Store(leaf+t.keyOff(idx), key)
	tx.Store(leaf+t.valOff(idx), val)
	tx.Store(leaf+offCount, uint64(count+1))
	t.bumpVersion(tx, leaf)
}

// splitLeaf moves the upper half of a full leaf into a new right sibling
// and returns the sibling and its separator (its smallest key).
func (t *Tree) splitLeaf(tx *htm.Tx, leaf simmem.Addr) (right simmem.Addr, sep uint64) {
	right = t.newNodeTx(tx, true)
	half := t.fanout / 2
	moved := t.fanout - half
	for i := 0; i < moved; i++ {
		tx.Store(right+t.keyOff(i), tx.Load(leaf+t.keyOff(half+i)))
		tx.Store(right+t.valOff(i), tx.Load(leaf+t.valOff(half+i)))
	}
	tx.Store(right+offCount, uint64(moved))
	tx.Store(right+offNext, tx.Load(leaf+offNext))
	tx.Store(leaf+offNext, uint64(right))
	tx.Store(leaf+offCount, uint64(half))
	t.bumpVersion(tx, leaf)
	sep = tx.Load(right + t.keyOff(0))
	return right, sep
}

// insertUp propagates a (separator, right-child) pair up the recorded
// path, splitting internal nodes and finally the root as needed.
func (t *Tree) insertUp(tx *htm.Tx, path []simmem.Addr, sep uint64, child simmem.Addr) {
	for i := len(path) - 1; i >= 0; i-- {
		node := path[i]
		count := int(tx.Load(node + offCount))
		if count < t.fanout {
			t.insertInternal(tx, node, count, sep, child)
			return
		}
		// Split the internal node: the middle separator moves up.
		mid := count / 2
		upKey := tx.Load(node + t.keyOff(mid))
		right := t.newNodeTx(tx, false)
		rc := count - mid - 1
		for j := 0; j < rc; j++ {
			tx.Store(right+t.keyOff(j), tx.Load(node+t.keyOff(mid+1+j)))
		}
		for j := 0; j <= rc; j++ {
			tx.Store(right+t.childOff(j), tx.Load(node+t.childOff(mid+1+j)))
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
	// Root split: grow the tree by one level.
	oldRoot := simmem.Addr(tx.Load(t.meta + metaRoot))
	depth := tx.Load(t.meta + metaDepth)
	newRoot := t.newNodeTx(tx, false)
	tx.Store(newRoot+offCount, 1)
	tx.Store(newRoot+offLevel, depth)
	tx.Store(newRoot+t.keyOff(0), sep)
	tx.Store(newRoot+t.childOff(0), uint64(oldRoot))
	tx.Store(newRoot+t.childOff(1), uint64(child))
	tx.Store(t.meta+metaRoot, uint64(newRoot))
	tx.Store(t.meta+metaDepth, depth+1)
}

// insertInternal inserts (sep, child-to-the-right) into an internal node
// with the given current count (caller guarantees count < fanout).
func (t *Tree) insertInternal(tx *htm.Tx, node simmem.Addr, count int, sep uint64, child simmem.Addr) {
	pos := 0
	for pos < count && tx.Load(node+t.keyOff(pos)) < sep {
		pos++
	}
	for i := count; i > pos; i-- {
		tx.Store(node+t.keyOff(i), tx.Load(node+t.keyOff(i-1)))
	}
	for i := count + 1; i > pos+1; i-- {
		tx.Store(node+t.childOff(i), tx.Load(node+t.childOff(i-1)))
	}
	tx.Store(node+t.keyOff(pos), sep)
	tx.Store(node+t.childOff(pos+1), uint64(child))
	tx.Store(node+offCount, uint64(count+1))
	t.bumpVersion(tx, node)
}

// Delete implements tree.KV: it removes the record by shifting the arrays
// left. Underfull leaves are left in place (deletion without rebalancing,
// as in Section 4.2.4's deferred scheme).
func (t *Tree) Delete(th *htm.Thread, key uint64) bool {
	var removed bool
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		removed = false
		leaf := t.findLeaf(tx, key, nil)
		idx, found := t.leafSearch(tx, leaf, key)
		if !found {
			return
		}
		count := int(tx.Load(leaf + offCount))
		for i := idx; i < count-1; i++ {
			tx.Store(leaf+t.keyOff(i), tx.Load(leaf+t.keyOff(i+1)))
			tx.Store(leaf+t.valOff(i), tx.Load(leaf+t.valOff(i+1)))
		}
		tx.Store(leaf+offCount, uint64(count-1))
		t.bumpVersion(tx, leaf)
		removed = true
	})
	return removed
}

// Scan implements tree.KV: it gathers up to max records with key >= from
// inside one HTM region (following leaf links), then reports them to fn
// outside the region so retries never re-deliver.
func (t *Tree) Scan(th *htm.Thread, from uint64, max int, fn func(key, val uint64) bool) int {
	type pair struct{ k, v uint64 }
	buf := make([]pair, 0, max)
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		buf = buf[:0]
		leaf := t.findLeaf(tx, from, nil)
		idx, _ := t.leafSearch(tx, leaf, from)
		for len(buf) < max && leaf != simmem.NilAddr {
			count := int(tx.Load(leaf + offCount))
			for ; idx < count && len(buf) < max; idx++ {
				buf = append(buf, pair{tx.Load(leaf + t.keyOff(idx)), tx.Load(leaf + t.valOff(idx))})
			}
			leaf = simmem.Addr(tx.Load(leaf + offNext))
			idx = 0
		}
	})
	n := 0
	for _, p := range buf {
		if !fn(p.k, p.v) {
			break
		}
		n++
	}
	return n
}

// Depth returns the current number of tree levels (diagnostic).
func (t *Tree) Depth(th *htm.Thread) int {
	var d uint64
	th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		d = tx.Load(t.meta + metaDepth)
	})
	return int(d)
}
