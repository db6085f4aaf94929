package core

import (
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
)

// Scan implements tree.KV range queries (Section 4.2.4). Per leaf it:
//
//  1. acquires the leaf's advisory lock, serializing against splits,
//     compactions and other scans (the paper locks scanned leaves);
//  2. snapshots the leaf's live records inside a lower HTM region that
//     re-validates the sequence number;
//  3. merge-sorts the (already per-segment-sorted) records — staged through
//     a transient reserved-keys buffer, the Section 5.7 footprint — and
//     emits them to fn outside the region, so retries never re-deliver.
//
// The reserved-keys buffer is the thread's own scratch (borrowScratch),
// borrowed for the length of the call; the arena only accounts for it and
// charges its modelled cost (Arena.Reserve), so a scan allocates nothing
// and touches no arena line it does not read.
//
// The hop to the next leaf reuses the (address, seqno) pair sampled inside
// the current leaf's region as the connection point; if validation of the
// next leaf fails, the scan re-traverses from the root at the first
// unvisited key.
func (t *Tree) Scan(th *htm.Thread, from uint64, max int, fn func(key, val uint64) bool) int {
	if max <= 0 {
		return 0
	}
	visited := 0
	cur := from
	chainLeaf := simmem.NilAddr
	var chainSeq uint64
	sc := t.borrowScratch(th)
	defer func() { th.Scratch = sc }()
	buf := sc.buf

	for {
		var leaf simmem.Addr
		var s0 uint64
		if chainLeaf != simmem.NilAddr {
			leaf, s0 = chainLeaf, chainSeq
		} else {
			leaf, s0 = t.upper(th, cur)
		}
		ccm := t.ccmAddr(leaf)
		th.NoteNode(uint64(leaf))
		t.lockLeaf(th.P, ccm)
		ok := false
		next := simmem.NilAddr
		var nextSeq uint64
		th.Execute(t.lowerPol, func(tx *htm.Tx) {
			ok, next, nextSeq = false, simmem.NilAddr, 0
			if tx.Load(leaf+offSeqno) != s0 {
				return
			}
			buf = t.collectLive(tx, leaf, buf[:0])
			next = simmem.Addr(tx.Load(leaf + offNext))
			if next != simmem.NilAddr {
				nextSeq = tx.Load(next + offSeqno)
			}
			ok = true
		})
		t.unlockLeaf(th.P, ccm)
		if !ok {
			t.rootRetries.Add(1)
			chainLeaf = simmem.NilAddr
			continue
		}
		sortPairs(buf)
		// Transient reserved-keys staging, accounted under TagReserved.
		t.a.Reserve(th.P, 2*len(buf), simmem.TagReserved)
		stop := false
		for _, r := range buf {
			if r.k < cur {
				continue
			}
			if !fn(r.k, r.v) {
				stop = true
				break
			}
			visited++
			cur = r.k + 1
			if visited == max {
				stop = true
				break
			}
		}
		t.a.Release(th.P, 2*len(buf), simmem.TagReserved)
		if stop || next == simmem.NilAddr {
			return visited
		}
		chainLeaf, chainSeq = next, nextSeq
	}
}

// threadScratch is what a tree keeps on its htm.Thread between operations
// so that the ones which stage a leaf — Scan, compaction, the split — need
// not allocate, least of all inside a transaction body that retries.
type threadScratch struct {
	buf  []pair        // a leaf's live records, plus the one being put
	path []simmem.Addr // the root-to-parent path of a split
}

// borrowScratch takes the thread's scratch for the length of an operation;
// the caller hands it back with th.Scratch = sc. Borrowed, not shared: an
// operation issued from a Scan callback on this thread finds none and makes
// its own.
func (t *Tree) borrowScratch(th *htm.Thread) *threadScratch {
	sc, _ := th.Scratch.(*threadScratch)
	th.Scratch = nil
	if sc == nil || cap(sc.buf) <= t.leafCap() {
		sc = &threadScratch{buf: make([]pair, 0, t.leafCap()+1)}
	}
	return sc
}

// sortPairs sorts a leaf's worth of records by key: an insertion sort,
// which on the few already-sorted runs collectLive produces does little
// more than merge them.
func sortPairs(recs []pair) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		j := i
		for ; j > 0 && recs[j-1].k > r.k; j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
	}
}
