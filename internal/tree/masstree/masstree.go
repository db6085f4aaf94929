// Package masstree implements the paper's fine-grained-locking comparator:
// a concurrent B+Tree with Masstree-style optimistic concurrency control
// ("before-and-after" version validation, Section 4.6 of the Masstree
// paper), which the Eunomia paper derives its lock-based baseline from and
// still calls "Masstree" for simplicity — as do we.
//
// Every node carries a version word. Readers sample it, read optimistically
// and re-validate; writers lock the node (CAS on the version word), modify,
// and release with a version bump. This is exactly the extra
// synchronization instruction stream the paper measures ("a put operation
// in Masstree needs on average to check and manipulate a version number
// about 15 times while traversing the tree"): in our cost model those
// loads, CASes and re-checks are charged to virtual time, reproducing the
// ~40% instruction overhead against Euno-B+Tree.
//
// Structure modifications (splits) are serialized by a single SMO lock: the
// splitter locks the affected path top of that, so readers and unrelated
// writers proceed untouched. Masstree proper threads split locks hand over
// hand; serializing rare splits is a simplification that does not affect
// the contended-leaf behavior the evaluation measures.
//
// HTM-Masstree — "an HTM version of Masstree... using an HTM region to
// protect the entire Masstree operation, subsuming multiple elided locks" —
// is the same code run inside one transaction per operation with every lock
// elided (read, never written). The version-word bumps remain, which is
// precisely why it aborts so much: every writer invalidates every
// concurrent reader of the node's metadata line.
package masstree

import (
	"sort"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// Node layout (words from node base). Line 0 is metadata (TagNodeMeta);
// keys/values/children follow on TagKeys lines, as in the baseline tree.
const (
	offCount   = 0
	offNext    = 1 // right sibling (B-link pointer; leaves and internals)
	offLevel   = 2
	offVersion = 3 // bit 0 = locked, bits 1.. = version
	offHigh    = 4 // exclusive upper bound of this node's key range
	offData    = 8
)

// maxHigh is the high key of a rightmost node. User keys must be below it
// (the tree package already reserves ^0 as the tombstone).
const maxHigh = ^uint64(0)

// The tree-global metadata line packs root address and depth into one word
// so a descent reads them atomically: depth<<56 | root.
const (
	metaRootDepth = 0
	metaSMO       = 4 // structure-modification lock word (same line)
)

// Tree is the fine-grained B+Tree; set UseHTM for the HTM-Masstree variant.
type Tree struct {
	h      *htm.HTM
	a      *simmem.Arena
	fanout int
	meta   simmem.Addr
	useHTM bool
}

// New creates an empty tree. useHTM selects HTM-Masstree.
func New(h *htm.HTM, boot *htm.Thread, fanout int, useHTM bool) *Tree {
	if fanout < 4 {
		panic("masstree: fanout must be at least 4")
	}
	t := &Tree{h: h, a: h.Arena(), fanout: fanout, useHTM: useHTM}
	t.meta = t.a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagTreeMeta)
	root := t.newNode(boot.P, true)
	t.a.StoreWordDirect(boot.P, root+offHigh, maxHigh)
	t.a.StoreWordDirect(boot.P, t.meta+metaRootDepth, packRootDepth(root, 1))
	return t
}

func packRootDepth(root simmem.Addr, depth uint64) uint64 {
	return depth<<56 | uint64(root)
}

func unpackRootDepth(w uint64) (simmem.Addr, uint64) {
	return simmem.Addr(w & (1<<56 - 1)), w >> 56
}

// Name implements tree.KV.
func (t *Tree) Name() string {
	if t.useHTM {
		return "htm-masstree"
	}
	return "masstree"
}

func (t *Tree) leafWords() int     { return offData + 2*t.fanout }
func (t *Tree) internalWords() int { return offData + 2*t.fanout + 1 }

func (t *Tree) keyOff(i int) simmem.Addr   { return simmem.Addr(offData + i) }
func (t *Tree) valOff(i int) simmem.Addr   { return simmem.Addr(offData + t.fanout + i) }
func (t *Tree) childOff(i int) simmem.Addr { return simmem.Addr(offData + t.fanout + i) }

func (t *Tree) newNode(p vclock.Proc, leaf bool) simmem.Addr {
	n := t.leafWords()
	if !leaf {
		n = t.internalWords()
	}
	addr := t.a.AllocAligned(p, n, simmem.TagKeys)
	t.a.Retag(addr, simmem.WordsPerLine, simmem.TagNodeMeta)
	return addr
}

// mem abstracts the two execution modes. In direct mode reads/writes are
// raw atomic word accesses (writers hold node locks; readers validate node
// versions), and lock operations are real CASes. In tx mode everything goes
// through the transaction and locks are elided: a "lock" only verifies the
// word is free/unchanged, relying on the transaction for atomicity.
type mem struct {
	t  *Tree
	p  vclock.Proc
	tx *htm.Tx // nil in direct mode
}

func (m mem) load(addr simmem.Addr) uint64 {
	if m.tx != nil {
		return m.tx.Load(addr)
	}
	return m.t.a.LoadWord(m.p, addr)
}

// fault marks a fault point in whichever mode the operation is running:
// transactional points can be aborted, direct-mode points can only yield.
func (m mem) fault(pt htm.FaultPoint) {
	if m.tx != nil {
		m.tx.Fault(pt)
		return
	}
	m.t.h.FaultProc(m.p, pt)
}

// store writes a word. Direct-mode callers must hold the covering node
// lock (or own the node exclusively); the owned store advances the line
// version so other cores' cached copies are invalidated.
func (m mem) store(addr simmem.Addr, v uint64) {
	if m.tx != nil {
		m.tx.Store(addr, v)
		return
	}
	m.t.a.StoreWordOwned(m.p, addr, v)
}

// stableVersion samples a node version, spinning past writers. The Fence
// cost models the ordering and bookkeeping instructions that surround every
// optimistic version check — the "before-and-after" machinery that makes
// Masstree execute ~2x the instructions of the HTM trees (Section 5.2).
func (m mem) stableVersion(node simmem.Addr) uint64 {
	for {
		v := m.load(node + offVersion)
		if v&1 == 0 {
			m.p.Tick(m.t.a.Costs().Fence)
			return v
		}
		// In tx mode a locked version is impossible (lock words are never
		// written transactionally), so this loop only spins in direct mode.
		m.p.Spin(m.t.a.Costs().SpinIter)
	}
}

// checkVersion re-validates a node against a previously sampled version
// (the "after" half of the before/after check).
func (m mem) checkVersion(node simmem.Addr, expect uint64) bool {
	m.p.Tick(m.t.a.Costs().Fence)
	return m.load(node+offVersion) == expect
}

// tryLock validates that the node still has the observed version and locks
// it. In tx mode validation alone suffices (the transaction serializes).
func (m mem) tryLock(node simmem.Addr, expect uint64) bool {
	if m.tx != nil {
		return m.tx.Load(node+offVersion) == expect
	}
	m.p.Tick(m.t.a.Costs().CAS)
	return m.t.a.CASWordDirect(m.p, node+offVersion, expect, expect|1)
}

// unlockBump releases a locked node, advancing its version.
func (m mem) unlockBump(node simmem.Addr, oldVer uint64) {
	if m.tx != nil {
		m.tx.Store(node+offVersion, oldVer+2)
		return
	}
	m.t.a.StoreWordOwned(m.p, node+offVersion, oldVer+2)
}

// unlockPlain releases a locked node without a version bump (no
// modification was made).
func (m mem) unlockPlain(node simmem.Addr, oldVer uint64) {
	if m.tx != nil {
		return
	}
	m.t.a.StoreWordOwned(m.p, node+offVersion, oldVer)
}

// root reads the packed root/depth word.
func (m mem) root() (simmem.Addr, uint64) {
	return unpackRootDepth(m.load(m.t.meta + metaRootDepth))
}

// newNode allocates a node; in tx mode the allocation is transaction-
// tracked so an abort returns it to the free list.
func (m mem) newNode(leaf bool) simmem.Addr {
	n := m.t.leafWords()
	if !leaf {
		n = m.t.internalWords()
	}
	var addr simmem.Addr
	if m.tx != nil {
		addr = m.tx.AllocAligned(n, simmem.TagKeys)
	} else {
		addr = m.t.a.AllocAligned(m.p, n, simmem.TagKeys)
	}
	m.t.a.Retag(addr, simmem.WordsPerLine, simmem.TagNodeMeta)
	return addr
}

// findChildIdx returns the child index covering key (separators <= key).
// NodeWork charges Masstree's per-node structural instruction budget.
func (m mem) findChildIdx(node simmem.Addr, key uint64) int {
	m.p.Tick(m.t.a.Costs().NodeWork)
	count := int(m.load(node + offCount))
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		if m.load(node+m.t.keyOff(mid)) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafSearch returns the lower-bound index for key and whether it matched.
func (m mem) leafSearch(leaf simmem.Addr, key uint64) (int, bool) {
	m.p.Tick(m.t.a.Costs().NodeWork)
	count := int(m.load(leaf + offCount))
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		if m.load(leaf+m.t.keyOff(mid)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < count && m.load(leaf+m.t.keyOff(lo)) == key {
		return lo, true
	}
	return lo, false
}

// descend performs an OLC root-to-leaf walk, validating each node version
// after reading the child pointer, and chasing B-link right-siblings
// whenever a node's high key shows it no longer covers the search key (a
// reader can arrive at a node just after it split away the upper half of
// its range). It returns the path (internal nodes, root first), their
// validated versions, the leaf and its version, or ok=false if a
// validation failed (caller restarts).
func (m mem) descend(key uint64, nodes *[]simmem.Addr, vers *[]uint64) (leaf simmem.Addr, leafVer uint64, ok bool) {
	// Entry edge: the root may split between reading the root pointer and
	// sampling its version, leaving a consistent-looking node that only
	// covers half the key space. Re-reading the pointer after the version
	// sample closes the window: any later root split bumps the node's
	// version and is caught by the normal per-node validation.
	var node simmem.Addr
	var depth, v uint64
	for {
		w := m.load(m.t.meta + metaRootDepth)
		node, depth = unpackRootDepth(w)
		v = m.stableVersion(node)
		if m.load(m.t.meta+metaRootDepth) == w {
			break
		}
		m.p.Spin(m.t.a.Costs().SpinIter)
	}
	for d := depth; ; d-- {
		// Chase right-siblings while the node's range ends at or below key.
		for {
			high := m.load(node + offHigh)
			if key < high {
				break
			}
			next := simmem.Addr(m.load(node + offNext))
			if !m.checkVersion(node, v) {
				return 0, 0, false
			}
			node = next
			v = m.stableVersion(node)
		}
		if d <= 1 {
			return node, v, true
		}
		idx := m.findChildIdx(node, key)
		child := simmem.Addr(m.load(node + m.t.childOff(idx)))
		if !m.checkVersion(node, v) { // before/after validation
			return 0, 0, false
		}
		*nodes = append(*nodes, node)
		*vers = append(*vers, v)
		node = child
		v = m.stableVersion(node)
	}
}

// Get implements tree.KV.
func (t *Tree) Get(th *htm.Thread, key uint64) (uint64, bool) {
	if t.useHTM {
		var val uint64
		var ok bool
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			val, ok = t.getWith(mem{t: t, p: th.P, tx: tx})(key)
		})
		return val, ok
	}
	return t.getWith(mem{t: t, p: th.P})(key)
}

func (t *Tree) getWith(m mem) func(uint64) (uint64, bool) {
	return func(key uint64) (uint64, bool) {
		var nodes []simmem.Addr
		var vers []uint64
		for {
			nodes, vers = nodes[:0], vers[:0]
			leaf, v, ok := m.descend(key, &nodes, &vers)
			if !ok {
				continue
			}
			idx, found := m.leafSearch(leaf, key)
			var val uint64
			if found {
				val = m.load(leaf + t.valOff(idx))
			}
			if !m.checkVersion(leaf, v) {
				continue
			}
			return val, found
		}
	}
}

// Put implements tree.KV.
func (t *Tree) Put(th *htm.Thread, key, val uint64) {
	if t.useHTM {
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			t.putWith(mem{t: t, p: th.P, tx: tx}, key, val)
		})
		return
	}
	t.putWith(mem{t: t, p: th.P}, key, val)
}

func (t *Tree) putWith(m mem, key, val uint64) {
	var nodes []simmem.Addr
	var vers []uint64
	for {
		nodes, vers = nodes[:0], vers[:0]
		leaf, v, ok := m.descend(key, &nodes, &vers)
		if !ok {
			continue
		}
		if !m.tryLock(leaf, v) {
			continue
		}
		idx, found := m.leafSearch(leaf, key)
		if found {
			m.store(leaf+t.valOff(idx), val)
			m.unlockBump(leaf, v)
			return
		}
		count := int(m.load(leaf + offCount))
		if count < t.fanout {
			for i := count; i > idx; i-- {
				m.store(leaf+t.keyOff(i), m.load(leaf+t.keyOff(i-1)))
				m.store(leaf+t.valOff(i), m.load(leaf+t.valOff(i-1)))
			}
			m.store(leaf+t.keyOff(idx), key)
			m.store(leaf+t.valOff(idx), val)
			m.store(leaf+offCount, uint64(count+1))
			m.unlockBump(leaf, v)
			return
		}
		if t.splitInsert(m, nodes, vers, leaf, v, key, val) {
			return
		}
		// Split raced with another structure modification: retry fully.
	}
}

// acquireSMO takes the structure-modification lock. In tx mode the word is
// only read (elided); it can never be observed held, because no one writes
// it transactionally and an HTM-Masstree tree has no direct writers.
func (m mem) acquireSMO() bool {
	addr := m.t.meta + metaSMO
	if m.tx != nil {
		return m.tx.Load(addr) == 0
	}
	for !m.t.a.CASWordDirect(m.p, addr, 0, 1) {
		for m.t.a.LoadWord(m.p, addr) != 0 {
			m.p.Spin(m.t.a.Costs().SpinIter)
		}
	}
	return true
}

func (m mem) releaseSMO() {
	if m.tx != nil {
		return
	}
	m.t.a.StoreWordDirect(m.p, m.t.meta+metaSMO, 0)
}

// splitInsert handles an insertion into a full leaf: under the SMO lock it
// locks the full suffix of the path, splits bottom-up, installs the new
// key, and releases everything. Returns false if any version validation
// failed (the caller retries the whole operation).
func (t *Tree) splitInsert(m mem, nodes []simmem.Addr, vers []uint64, leaf simmem.Addr, leafVer uint64, key, val uint64) bool {
	// The leaf is already locked by the caller.
	if !m.acquireSMO() {
		m.unlockPlain(leaf, leafVer)
		return false
	}
	m.fault(htm.FaultMidSplit)
	type held struct {
		node simmem.Addr
		ver  uint64
	}
	locked := []held{{leaf, leafVer}}
	release := func(bumped int) {
		// Nodes below `bumped` in the slice were modified.
		for i, h := range locked {
			if i < bumped {
				m.unlockBump(h.node, h.ver)
			} else {
				m.unlockPlain(h.node, h.ver)
			}
		}
		m.releaseSMO()
	}
	// Lock ancestors while they are full (they will split too), plus the
	// first non-full one (it will absorb the final separator).
	top := -1 // index into nodes of the non-full ancestor, -1 if root splits
	for i := len(nodes) - 1; i >= 0; i-- {
		if !m.tryLock(nodes[i], vers[i]) {
			release(0)
			return false
		}
		locked = append(locked, held{nodes[i], vers[i]})
		if int(m.load(nodes[i]+offCount)) < t.fanout {
			top = i
			break
		}
	}

	// Split the leaf.
	right := m.newNode(true)
	half := t.fanout / 2
	moved := t.fanout - half
	for i := 0; i < moved; i++ {
		m.store(right+t.keyOff(i), m.load(leaf+t.keyOff(half+i)))
		m.store(right+t.valOff(i), m.load(leaf+t.valOff(half+i)))
	}
	m.store(right+offCount, uint64(moved))
	m.store(right+offNext, m.load(leaf+offNext))
	m.store(leaf+offNext, uint64(right))
	m.store(leaf+offCount, uint64(half))
	sep := m.load(right + t.keyOff(0))
	m.store(right+offHigh, m.load(leaf+offHigh))
	m.store(leaf+offHigh, sep)

	// Install the pending record.
	target := leaf
	if key >= sep {
		target = right
	}
	idx, _ := m.leafSearch(target, key)
	count := int(m.load(target + offCount))
	for i := count; i > idx; i-- {
		m.store(target+t.keyOff(i), m.load(target+t.keyOff(i-1)))
		m.store(target+t.valOff(i), m.load(target+t.valOff(i-1)))
	}
	m.store(target+t.keyOff(idx), key)
	m.store(target+t.valOff(idx), val)
	m.store(target+offCount, uint64(count+1))

	// Propagate the separator upward through the locked full ancestors.
	child := right
	lo := 0
	if top >= 0 {
		lo = top
	}
	for i := len(nodes) - 1; i >= lo; i-- {
		node := nodes[i]
		count := int(m.load(node + offCount))
		if count < t.fanout {
			t.insertInternal(m, node, count, sep, child)
			release(len(locked))
			return true
		}
		mid := count / 2
		upKey := m.load(node + t.keyOff(mid))
		nright := m.newNode(false)
		rc := count - mid - 1
		for j := 0; j < rc; j++ {
			m.store(nright+t.keyOff(j), m.load(node+t.keyOff(mid+1+j)))
		}
		for j := 0; j <= rc; j++ {
			m.store(nright+t.childOff(j), m.load(node+t.childOff(mid+1+j)))
		}
		m.store(nright+offCount, uint64(rc))
		m.store(nright+offLevel, m.load(node+offLevel))
		m.store(nright+offNext, m.load(node+offNext))
		m.store(node+offNext, uint64(nright))
		m.store(nright+offHigh, m.load(node+offHigh))
		m.store(node+offHigh, upKey)
		m.store(node+offCount, uint64(mid))
		if sep < upKey {
			t.insertInternal(m, node, mid, sep, child)
		} else {
			t.insertInternal(m, nright, rc, sep, child)
		}
		sep, child = upKey, nright
	}
	if top < 0 {
		// Root split: swap in a new root atomically.
		oldRootDepth := m.load(t.meta + metaRootDepth)
		oldRoot, depth := unpackRootDepth(oldRootDepth)
		newRoot := m.newNode(false)
		m.store(newRoot+offCount, 1)
		m.store(newRoot+offLevel, depth)
		m.store(newRoot+offHigh, maxHigh)
		m.store(newRoot+t.keyOff(0), sep)
		m.store(newRoot+t.childOff(0), uint64(oldRoot))
		m.store(newRoot+t.childOff(1), uint64(child))
		m.store(t.meta+metaRootDepth, packRootDepth(newRoot, depth+1))
	}
	release(len(locked))
	return true
}

func (t *Tree) insertInternal(m mem, node simmem.Addr, count int, sep uint64, child simmem.Addr) {
	pos := 0
	for pos < count && m.load(node+t.keyOff(pos)) < sep {
		pos++
	}
	for i := count; i > pos; i-- {
		m.store(node+t.keyOff(i), m.load(node+t.keyOff(i-1)))
	}
	for i := count + 1; i > pos+1; i-- {
		m.store(node+t.childOff(i), m.load(node+t.childOff(i-1)))
	}
	m.store(node+t.keyOff(pos), sep)
	m.store(node+t.childOff(pos+1), uint64(child))
	m.store(node+offCount, uint64(count+1))
}

// Delete implements tree.KV.
func (t *Tree) Delete(th *htm.Thread, key uint64) bool {
	if t.useHTM {
		var removed bool
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			removed = t.deleteWith(mem{t: t, p: th.P, tx: tx}, key)
		})
		return removed
	}
	return t.deleteWith(mem{t: t, p: th.P}, key)
}

func (t *Tree) deleteWith(m mem, key uint64) bool {
	var nodes []simmem.Addr
	var vers []uint64
	for {
		nodes, vers = nodes[:0], vers[:0]
		leaf, v, ok := m.descend(key, &nodes, &vers)
		if !ok {
			continue
		}
		idx, found := m.leafSearch(leaf, key)
		if !found {
			if !m.checkVersion(leaf, v) {
				continue
			}
			return false
		}
		if !m.tryLock(leaf, v) {
			continue
		}
		// Re-check under the lock (the optimistic search may be stale).
		idx, found = m.leafSearch(leaf, key)
		if !found {
			m.unlockPlain(leaf, v)
			return false
		}
		count := int(m.load(leaf + offCount))
		for i := idx; i < count-1; i++ {
			m.store(leaf+t.keyOff(i), m.load(leaf+t.keyOff(i+1)))
			m.store(leaf+t.valOff(i), m.load(leaf+t.valOff(i+1)))
		}
		m.store(leaf+offCount, uint64(count-1))
		m.unlockBump(leaf, v)
		return true
	}
}

// Scan implements tree.KV with per-leaf optimistic snapshots.
func (t *Tree) Scan(th *htm.Thread, from uint64, max int, fn func(key, val uint64) bool) int {
	if max <= 0 {
		return 0
	}
	if t.useHTM {
		// Collect inside the transaction, emit outside, so an aborted
		// attempt never re-delivers records to fn.
		res := make([][2]uint64, 0, max)
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			res = res[:0]
			t.scanWith(mem{t: t, p: th.P, tx: tx}, from, max, func(k, v uint64) bool {
				res = append(res, [2]uint64{k, v})
				return true
			})
		})
		n := 0
		for _, r := range res {
			if !fn(r[0], r[1]) {
				break
			}
			n++
		}
		return n
	}
	return t.scanWith(mem{t: t, p: th.P}, from, max, fn)
}

func (t *Tree) scanWith(m mem, from uint64, max int, fn func(key, val uint64) bool) int {
	type pair struct{ k, v uint64 }
	buf := make([]pair, 0, t.fanout)
	visited := 0
	cur := from
	var nodes []simmem.Addr
	var vers []uint64
	for {
		nodes, vers = nodes[:0], vers[:0]
		leaf, v, ok := m.descend(cur, &nodes, &vers)
		if !ok {
			continue
		}
	leafChain:
		for {
			buf = buf[:0]
			count := int(m.load(leaf + offCount))
			for i := 0; i < count; i++ {
				buf = append(buf, pair{m.load(leaf + t.keyOff(i)), m.load(leaf + t.valOff(i))})
			}
			next := simmem.Addr(m.load(leaf + offNext))
			var nv uint64
			if next != simmem.NilAddr {
				nv = m.stableVersion(next)
			}
			if !m.checkVersion(leaf, v) {
				break leafChain // snapshot invalid: re-descend at cur
			}
			sort.Slice(buf, func(a, b int) bool { return buf[a].k < buf[b].k })
			for _, r := range buf {
				if r.k < cur {
					continue
				}
				if !fn(r.k, r.v) {
					return visited
				}
				visited++
				cur = r.k + 1
				if visited == max {
					return visited
				}
			}
			if next == simmem.NilAddr {
				return visited
			}
			leaf, v = next, nv
		}
	}
}
