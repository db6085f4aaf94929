package core

import (
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
)

// scanRegionLines is the read footprint, in cache lines, that one scan
// region may take — a constant, not an option: small enough for a device
// with a few leaves' worth of read capacity (the capacity tests model 48
// lines), and longer regions bought nothing (1 to 32 leaves moved no scan
// figure by more than 4 %). Tree.scanLeaves is the whole leaves it buys: 4
// with the default geometry, where 3 already keep Scan(from, 16) at two
// regions on leaves no emptier than a split leaves them.
const scanRegionLines = 40

// Scan implements tree.KV range queries (Section 4.2.4). After the leaf
// directory or the upper region (locate), one lower region re-validates the
// first leaf's sequence number and fences and then follows next inside the
// same transaction, for as long as the scan still wants keys and up to
// scanLeaves leaves: every key a region returns comes from one atomic
// snapshot of those adjacent leaves. The region reads each leaf through
// scanLeaf — only from cur on, only as many records as are still wanted —
// into the thread's own scratch (borrowScratch), and the records are emitted
// to fn after it commits, so retries never re-deliver. The scan takes no
// advisory lock and accounts no reserved-keys staging (see the package
// comment's deviations).
//
// A region that stops at its leaf budget hands the (address, seqno) pair it
// sampled for the following leaf to the next region as the connection point,
// whose seqno alone re-validates it; if that fails, the scan locates the
// first unvisited key afresh.
func (t *Tree) Scan(th *htm.Thread, from uint64, max int, fn func(key, val uint64) bool) int {
	if max <= 0 {
		return 0
	}
	visited := 0
	cur := from
	chainLeaf := simmem.NilAddr
	var chainSeq uint64
	sc := t.borrowScratch(th)
	defer func() { sc.lent = false }()
	buf := sc.buf

	for {
		leaf, s0 := chainLeaf, chainSeq
		chained := leaf != simmem.NilAddr
		if !chained {
			leaf, s0, _ = t.locate(th, cur)
		}
		th.NoteNode(uint64(leaf))
		ok := false
		next := simmem.NilAddr
		var nextSeq uint64
		want := max - visited
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			ok, next, nextSeq, buf = false, simmem.NilAddr, 0, buf[:0]
			if chained && tx.Load(leaf+offSeqno) != s0 || !chained && !t.stitched(tx, leaf, s0, cur) {
				return
			}
			ok = true
			// Only the first leaf can hold keys below cur; from 0 searches
			// nothing.
			for l, n, at := leaf, 1, cur; ; l, n, at = next, n+1, 0 {
				buf = t.scanLeaf(tx, l, t.leafSegs(tx, l), at, buf, want)
				next = simmem.Addr(tx.Load(l + offNext))
				if next == simmem.NilAddr || len(buf) == want {
					return
				}
				if n == t.scanLeaves {
					nextSeq = tx.Load(next + offSeqno)
					return
				}
			}
		})
		if !ok {
			t.rootRetries.Add(1)
			chainLeaf = simmem.NilAddr
			continue
		}
		for _, r := range buf {
			if !fn(r.k, r.v) {
				return visited
			}
			visited++
			cur = r.k + 1
		}
		if visited == max || next == simmem.NilAddr {
			return visited
		}
		chainLeaf, chainSeq = next, nextSeq
	}
}

// threadScratch is what a tree keeps on its htm.Thread between operations:
// buffers for the ones which stage records — Scan, compaction, the split —
// so that they need not allocate.
type threadScratch struct {
	buf  []pair        // a scan region's records, or a leaf's plus the one being put
	path []simmem.Addr // the root-to-parent path of a split
	lent bool          // buf and path are borrowed; the borrower clears it
}

// borrowScratch lends the thread's buffers, made on first use, for the
// length of an operation, which hands them back with sc.lent = false. Lent,
// not shared: an operation started from a Scan callback on this thread finds
// them out and makes its own.
func (t *Tree) borrowScratch(th *htm.Thread) *threadScratch {
	sc, _ := th.Scratch.(*threadScratch)
	switch {
	case sc == nil:
		sc = new(threadScratch)
		th.Scratch = sc
	case sc.lent:
		sc = new(threadScratch)
	}
	sc.lent = true
	if n := t.scanLeaves * max(t.leafCap(), t.denseCap); cap(sc.buf) <= n {
		sc.buf = make([]pair, 0, n+1)
	}
	return sc
}
