package core

import (
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
)

// countTombstones walks the stable regions directly.
func countTombstones(t *testing.T, tr *Tree, boot *htm.Thread) int {
	t.Helper()
	p := boot.P
	// Walk the leaf chain from the leftmost leaf.
	root := tr.a.LoadWord(p, tr.meta+metaRoot)
	depth := tr.a.LoadWord(p, tr.meta+metaDepth)
	node := root
	for d := depth; d > 1; d-- {
		node = tr.a.LoadWord(p, tr.intChild(simmem.Addr(node), 0))
	}
	tombs := 0
	for l := simmem.Addr(node); l != 0; l = simmem.Addr(tr.a.LoadWord(p, l+offNext)) {
		count := int(tr.a.LoadWord(p, l+offStableCount))
		for i := 0; i < count; i++ {
			if tr.a.LoadWord(p, tr.stableV(l, i)) == tree.Tombstone {
				tombs++
			}
		}
	}
	return tombs
}

// TestDeferredRebalanceCompactsTombstones: deleting past the threshold
// must trigger compaction that physically removes tombstones.
func TestDeferredRebalanceCompactsTombstones(t *testing.T) {
	cfg := DefaultConfig
	cfg.RebalanceThreshold = 4
	tr, boot := newEuno(t, cfg)
	// Build a few leaves whose records sit in the stable region, and heat
	// them: a dense leaf's delete shifts its run and leaves no tombstone.
	for i := uint64(1); i <= 64; i++ {
		tr.Put(boot, i, i)
	}
	tr.heat(boot)
	before := tr.Compactions()
	// Delete most records from the same neighborhood: crossing the
	// threshold repeatedly must fire compactions.
	for i := uint64(1); i <= 64; i += 2 {
		tr.Delete(boot, i)
	}
	if tr.Compactions() == before {
		t.Fatal("no rebalance compaction fired")
	}
	if got := countTombstones(t, tr, boot); got >= 16 {
		t.Fatalf("%d tombstones remain; rebalance not effective", got)
	}
	// Semantics intact.
	for i := uint64(1); i <= 64; i++ {
		_, ok := tr.Get(boot, i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("get(%d) present=%v, want %v", i, ok, want)
		}
	}
	if err := tr.Validate(boot.P); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceSplitsACrowdedHotLeaf: a rebalance of a hot leaf that holds
// more live records than its segments can shadow is the rewrite an overflow
// would make — a split into partitioned halves — and leaves no tombstone.
func TestRebalanceSplitsACrowdedHotLeaf(t *testing.T) {
	tr, th := newEuno(t, DefaultConfig)
	fillEven(tr, th, 12)
	tr.heat(th) // in place: 12 stable records, empty segments
	present := map[uint64]bool{}
	for k := uint64(2); k <= 24; k += 2 {
		present[k] = true
	}
	for _, k := range tr.crowd(th) {
		present[k] = true
	}
	// Each delete of a stable key tombstones it.
	last := tr.cfg.RebalanceThreshold
	for k := uint64(1); k < last; k++ {
		tr.Delete(th, 2*k)
		delete(present, 2*k)
	}
	if tr.Splits() != 0 || countTombstones(t, tr, th) != int(last-1) {
		t.Fatalf("before the rebalance: %d splits and %d tombstones; want none and %d", tr.Splits(), countTombstones(t, tr, th), last-1)
	}
	tr.Delete(th, 2*last)
	delete(present, 2*last)
	if live := len(present); live <= tr.rewriteCap(true) {
		t.Fatalf("%d live records fit a hot leaf's %d; the test exercises nothing", live, tr.rewriteCap(true))
	}
	if got := countTombstones(t, tr, th); tr.Splits() != 1 || got != 0 {
		t.Fatalf("the rebalance made %d splits and left %d tombstones; want a split and none", tr.Splits(), got)
	}
	for _, l := range tr.leaves(th) {
		if segs := tr.a.LoadWord(th.P, l+offSegs); segs != uint64(tr.cfg.Segments) {
			t.Fatalf("a half of the split has %d segments in use; want it partitioned", segs)
		}
	}
	if err := tr.Validate(th.P); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k < 64; k++ {
		if v, ok := tr.Get(th, k); ok != present[k] || ok && v != 10*k {
			t.Fatalf("get(%d) = %d,%v; want present=%v", k, v, ok, present[k])
		}
	}
}

// TestRebalanceOfARewrittenLeafStoresNothing: a delete that takes a
// partitioned leaf's tombstones to the threshold, on a leaf another thread
// demotes between the delete's lower region and its rebalance, stores its
// tombstone and nothing else: the demotion has already dropped the
// tombstones the rebalance was for, and the new seqno it gave the leaf
// turns the rebalance away.
func TestRebalanceOfARewrittenLeafStoresNothing(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	fill(tr, boot, 12)
	tr.heat(boot)
	last := tr.cfg.RebalanceThreshold
	for k := uint64(1); k < last; k++ {
		tr.Delete(boot, k)
	}
	leaf, segs := tr.leafState(boot, last)
	if segs != tr.cfg.Segments || countTombstones(t, tr, boot) != int(last-1) {
		t.Fatalf("the set-up left %d segments in use and %d tombstones; want a partitioned leaf with %d", segs, countTombstones(t, tr, boot), last-1)
	}
	compactions := tr.Compactions()
	// The delete passes the CCM fault point twice on the hot leaf: before
	// it takes its lock bit and after its lower region. The second yields
	// for longer than the demoter waits: the demotion lands between the
	// delete's lower region and its rebalance.
	tr.h.SetFaultInjector(htm.NewFaultInjector(htm.FaultSpec{Point: htm.FaultCCM, Action: htm.ActYield, Nth: 2}))
	var stores uint64
	vclock.NewSim(2, 0).Run(func(p *vclock.SimProc) {
		th := tr.h.NewThread(p, uint64(p.ID())+1)
		if p.ID() == 1 {
			p.Spin(10_000)
			// A compaction once the score is gone: the leaf comes out dense.
			tr.a.StoreWordDirect(th.P, tr.ccmAddr(leaf)+ccmConflict, 0)
			tr.leafMaint(th, leaf, tr.a.LoadWord(th.P, leaf+offSeqno), tr.cfg.Segments, 0, tree.Tombstone, false)
			return
		}
		before := th.Stats.TxStores
		tr.Delete(th, last)
		stores = th.Stats.TxStores - before
	})
	tr.h.SetFaultInjector(nil)
	if stores != 1 || tr.Compactions() != compactions+1 {
		t.Fatalf("the delete stored %d words and the run made %d compactions; want its tombstone alone and the demotion's", stores, tr.Compactions()-compactions)
	}
	if _, segs := tr.leafState(boot, last); segs != 0 || countTombstones(t, tr, boot) != 0 {
		t.Fatalf("%d segments in use and %d tombstones; want the demoted leaf with none", segs, countTombstones(t, tr, boot))
	}
	if got := tr.a.LoadWord(boot.P, tr.ccmAddr(leaf)+ccmTombs); got != 0 {
		t.Fatalf("the tombstone count is %d after the rebalance; want it cleared", got)
	}
	for k := uint64(1); k <= 12; k++ {
		if v, ok := tr.Get(boot, k); ok != (k > last) || ok && v != 10*k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
	if err := tr.Validate(boot.P); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceUnderConcurrentTrafficSim: threshold compactions racing
// with puts and gets must preserve correctness.
func TestRebalanceUnderConcurrentTrafficSim(t *testing.T) {
	cfg := DefaultConfig
	cfg.RebalanceThreshold = 3
	tr, boot := newEuno(t, cfg)
	for i := uint64(1); i <= 600; i++ {
		tr.Put(boot, i, i)
	}
	sim := vclock.NewSim(8, 0)
	sim.Run(func(p *vclock.SimProc) {
		th := tr.h.NewThread(p, uint64(p.ID())+41)
		r := vclock.NewRand(uint64(p.ID()) + 13)
		for i := 0; i < 500; i++ {
			k := uint64(r.Intn(600)) + 1
			switch r.Intn(3) {
			case 0:
				tr.Put(th, k, k<<4)
			case 1:
				tr.Delete(th, k)
			default:
				if v, ok := tr.Get(th, k); ok && v>>4 != k && v != k {
					t.Errorf("get(%d) = %d", k, v)
				}
			}
		}
	})
	if err := tr.Validate(boot.P); err != nil {
		t.Fatal(err)
	}
}
