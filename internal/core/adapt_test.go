package core

import (
	"slices"
	"testing"

	"eunomia/internal/check"
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/tree/treetest"
	"eunomia/internal/vclock"
)

// hotTiny is checktrees' euno-adapt-tiny: the split-heavy geometry with the
// adaptive gate on and a threshold one conflict abort reaches, so leaves
// change state many times in a history of a hundred operations.
func hotTiny() Config {
	return Config{
		StableCap: 4, Segments: 2, SegCap: 1,
		PartLeaf: true, CCMLockBits: true, CCMMarkBits: true,
		Adaptive: true, HotThreshold: 1,
	}
}

// fill puts keys 1..n, which a cold tree keeps in one dense leaf while n is
// at most denseCap.
func fill(tr *Tree, th *htm.Thread, n uint64) {
	for k := uint64(1); k <= n; k++ {
		tr.Put(th, k, 10*k)
	}
}

// fillEven puts the even keys 2..2n, so a run of them has a gap for an odd
// key below each of its keys.
func fillEven(tr *Tree, th *htm.Thread, n uint64) {
	for k := uint64(2); k <= 2*n; k += 2 {
		tr.Put(th, k, 10*k)
	}
}

// crowd fills every segment of the partitioned leaf that covers key 1 to
// the brim with new keys below its last, picked by their insertion index
// into the leaf's run — the index names the key's home segment — and
// returns them; each is put with the value 10×key.
func (t *Tree) crowd(th *htm.Thread) []uint64 {
	leaf, _ := t.leafState(th, 1)
	run := make([]uint64, t.a.LoadWord(th.P, leaf+offStableCount))
	for i := range run {
		run[i] = t.a.LoadWord(th.P, t.stableK(leaf, i))
	}
	room := make([]int, t.cfg.Segments)
	var keys []uint64
	for k := uint64(1); len(keys) < t.cfg.Segments*t.cfg.SegCap && k < run[len(run)-1]; k++ {
		i, in := slices.BinarySearch(run, k)
		if j := i % t.cfg.Segments; !in && room[j] < t.cfg.SegCap {
			room[j]++
			keys = append(keys, k)
			t.Put(th, k, 10*k)
		}
	}
	return keys
}

func wantAll(t *testing.T, tr *Tree, th *htm.Thread, n uint64) {
	t.Helper()
	if err := tr.Validate(th.P); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := tr.Get(th, k); !ok || v != 10*k {
			t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, 10*k)
		}
	}
}

// setScore overwrites the contention score of the leaf that covers key.
func (t *Tree) setScore(th *htm.Thread, key, score uint64) {
	leaf, _ := t.leafState(th, key)
	t.a.StoreWordDirect(th.P, t.ccmAddr(leaf)+ccmConflict, score)
}

// TestLeafBornDensePromotesInPlaceOrBySplit: a leaf nobody aborted on is
// one sorted run past StableCap; the operation that takes its score to the
// threshold partitions it — in place, seqno untouched, while every record
// can have its shadow in a segment, by the sort-split beyond that — and no
// record or mark is lost on the way.
func TestLeafBornDensePromotesInPlaceOrBySplit(t *testing.T) {
	for _, n := range []uint64{12, 30} {
		tr, th := newEuno(t, DefaultConfig)
		fill(tr, th, n)
		leaf, segs := tr.leafState(th, 1)
		if run := tr.a.LoadWord(th.P, leaf+offStableCount); segs != 0 || run != n || tr.Splits() != 0 {
			t.Fatalf("n=%d: %d segments in use, a run of %d, %d splits; want one dense leaf", n, segs, run, tr.Splits())
		}
		seq := tr.a.LoadWord(th.P, leaf+offSeqno)
		// An operation that saw the leaf dense and aborted up to the threshold.
		tr.noteConflicts(th, leaf, seq, 0, tr.cfg.HotThreshold)
		for k := uint64(1); k <= n; k++ {
			if _, segs := tr.leafState(th, k); segs != tr.cfg.Segments {
				t.Fatalf("n=%d: key %d's leaf has %d segments in use after the promotion", n, k, segs)
			}
		}
		inPlace := n <= uint64(tr.cfg.Segments*tr.cfg.SegCap)
		if got := tr.Splits() == 0 && tr.a.LoadWord(th.P, leaf+offSeqno) == seq; got != inPlace {
			t.Fatalf("n=%d: promoted in place: %v, want %v", n, got, inPlace)
		}
		wantAll(t, tr, th, n)
		// A second threshold's worth of aborts finds nothing to do.
		before := th.Stats.TxStores
		tr.noteConflicts(th, leaf, tr.a.LoadWord(th.P, leaf+offSeqno), 0, tr.cfg.HotThreshold)
		if th.Stats.TxStores != before {
			t.Fatalf("n=%d: promoting a partitioned leaf stored %d words", n, th.Stats.TxStores-before)
		}
	}
}

// TestLeafDemotesOnlyWhenScoreIsGone: a partitioned leaf whose segments
// overflow is rewritten partitioned while any score is left — under the CCM
// a score hovers below the threshold by design — and dense once the score
// has decayed to nothing; the cold leaf, with more live records than a
// stable region holds, is joined into one run where the warm one splits.
func TestLeafDemotesOnlyWhenScoreIsGone(t *testing.T) {
	for _, score := range []uint64{DefaultConfig.HotThreshold - 1, 0} {
		tr, th := newEuno(t, DefaultConfig)
		fillEven(tr, th, 12)
		tr.heat(th) // in place: 12 stable records, empty segments
		keys := []uint64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}
		keys = append(keys, tr.crowd(th)...)
		k := uint64(25) // above the run: its home, segment 12 % Segments, is full
		if leaf, segs := tr.leafState(th, 1); segs != tr.cfg.Segments || tr.a.LoadWord(th.P, leaf+offStableCount) != 12 || tr.Splits() != 0 {
			t.Fatalf("score %d: the set-up left %d segments in use and %d splits; want one partitioned leaf, segments full", score, segs, tr.Splits())
		}
		tr.setScore(th, 1, score)
		tr.Put(th, k, 10*k) // no room in its home segment: the rewrite
		keys = append(keys, k)
		leaf, segs := tr.leafState(th, 1)
		run := int(tr.a.LoadWord(th.P, leaf+offStableCount))
		if score > 0 && (segs != tr.cfg.Segments || tr.Splits() != 1) {
			t.Fatalf("score %d: %d segments in use and %d splits after the rewrite; want a split with partitioned halves", score, segs, tr.Splits())
		}
		if score == 0 && (segs != 0 || run != len(keys) || tr.Splits() != 0) {
			t.Fatalf("score 0: %d segments in use, a run of %d and %d splits after the rewrite; want one dense leaf of %d records",
				segs, run, tr.Splits(), len(keys))
		}
		if err := tr.Validate(th.P); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if v, ok := tr.Get(th, k); !ok || v != 10*k {
				t.Fatalf("score %d: get(%d) = %d,%v want %d", score, k, v, ok, 10*k)
			}
		}
	}
}

// TestDenseUpdateIsOneStore: on a dense leaf an update of a present key is
// one store where the key lies, not a shadow copy; it and a get cost fewer
// loads than on the same records partitioned; and neither writes the CCM
// line.
func TestDenseUpdateIsOneStore(t *testing.T) {
	cost := func(hot bool) (stores, loads uint64) {
		tr, th := newEuno(t, DefaultConfig)
		fill(tr, th, 12)
		if hot {
			tr.heat(th)
		}
		leaf, segs := tr.leafState(th, 7)
		if (segs != 0) != hot {
			t.Fatalf("hot=%v: %d segments in use", hot, segs)
		}
		ccm := tr.a.LineState(tr.ccmAddr(leaf).Line())
		stores, loads = th.Stats.TxStores, th.Stats.TxLoads
		tr.Put(th, 7, 70)
		stores = th.Stats.TxStores - stores
		if v, ok := tr.Get(th, 7); !ok || v != 70 {
			t.Fatalf("hot=%v: get(7) = %d,%v", hot, v, ok)
		}
		if got := tr.a.LineState(tr.ccmAddr(leaf).Line()); !hot && got != ccm {
			t.Fatalf("the CCM line of a dense leaf moved %#x -> %#x across an update and a get", ccm, got)
		}
		return stores, th.Stats.TxLoads - loads
	}
	denseStores, denseLoads := cost(false)
	partStores, partLoads := cost(true)
	t.Logf("update+get of one of 12 records: dense %d stores %d loads, partitioned %d stores %d loads",
		denseStores, denseLoads, partStores, partLoads)
	if denseStores != 1 || partStores <= 1 {
		t.Fatalf("the update stored %d words on the dense leaf and %d on the partitioned one; want 1 and a shadow copy's several", denseStores, partStores)
	}
	if denseLoads >= partLoads {
		t.Fatalf("update+get cost %d loads dense and %d partitioned; want fewer dense", denseLoads, partLoads)
	}
}

// TestDenseWritesLeaveCCMLine: a dense leaf's update, insert and delete —
// and a get, and a delete of an absent key — leave its CCM line's version
// where it was: a dense leaf's writes read and move no mark, its delete
// shifts the run and counts no tombstone, and with no aborts and a zero
// score the contention detector only loads the line.
func TestDenseWritesLeaveCCMLine(t *testing.T) {
	tr, th := newEuno(t, DefaultConfig)
	fillEven(tr, th, 12)
	leaf, segs := tr.leafState(th, 2)
	if segs != 0 {
		t.Fatalf("the set-up left %d segments in use; want a dense leaf", segs)
	}
	line := tr.ccmAddr(leaf).Line()
	before := tr.a.LineState(line)
	for i := 0; i < 64; i++ { // past the detector's 1-in-32 sampled decay
		tr.Put(th, 4, 41) // an update
		tr.Put(th, 7, 70) // an insert into the run's gap
		tr.Delete(th, 7)  // a delete that shifts it back
		tr.Delete(th, 9)  // a delete of an absent key
		tr.Get(th, 4)
	}
	if got := tr.a.LineState(line); got != before {
		t.Fatalf("the dense leaf's CCM line moved %#x -> %#x", before, got)
	}
	if _, segs := tr.leafState(th, 2); segs != 0 || tr.a.LoadWord(th.P, leaf+offStableCount) != 12 || countTombstones(t, tr, th) != 0 {
		t.Fatalf("%d segments in use, a run of %d and %d tombstones; want the dense leaf of 12 records and none",
			segs, tr.a.LoadWord(th.P, leaf+offStableCount), countTombstones(t, tr, th))
	}
	for k := uint64(2); k <= 24; k += 2 {
		want := 10 * k
		if k == 4 {
			want = 41
		}
		if v, ok := tr.Get(th, k); !ok || v != want {
			t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, want)
		}
	}
	if _, ok := tr.Get(th, 7); ok {
		t.Fatal("get(7) found the deleted key")
	}
	if err := tr.Validate(th.P); err != nil {
		t.Fatal(err)
	}
}

// TestDemotionTurnsAwayAStaleMarkRead: a get that sampled a hot leaf
// partitioned and reads its key's zero mark after the leaf was demoted and
// the key inserted densely — which counts no mark — finds the seqno the
// demotion moved, and so the key, instead of turning it away.
func TestDemotionTurnsAwayAStaleMarkRead(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	fillEven(tr, boot, 12)
	tr.heat(boot)
	leaf, segs := tr.leafState(boot, 2)
	ccm := tr.ccmAddr(leaf)
	k := uint64(1) // an odd key, absent, whose slot no mark counts
	for ; tr.markCount(boot.P, ccm, tr.slotOf(k)) != 0; k += 2 {
	}
	if segs != tr.cfg.Segments || k > 24 {
		t.Fatalf("the set-up left %d segments in use and no unmarked gap below 24 (k=%d)", segs, k)
	}
	tr.Get(boot, k) // the directory holds the leaf
	// The get's stitch yields for longer than the other thread waits.
	tr.h.SetFaultInjector(htm.NewFaultInjector(htm.FaultSpec{Point: htm.FaultStitch, Action: htm.ActYield}))
	var got uint64
	var ok bool
	vclock.NewSim(2, 0).Run(func(p *vclock.SimProc) {
		th := tr.h.NewThread(p, uint64(p.ID())+1)
		if p.ID() == 0 {
			got, ok = tr.Get(th, k)
			return
		}
		p.Spin(10_000)
		// A demotion, a dense insert of k by its lower region alone, and
		// the score back up, so the get consults the marks.
		tr.a.StoreWordDirect(th.P, ccm+ccmConflict, 0)
		tr.leafMaint(th, leaf, tr.a.LoadWord(th.P, leaf+offSeqno), tr.cfg.Segments, 0, tree.Tombstone, false)
		s0 := tr.a.LoadWord(th.P, leaf+offSeqno)
		var out outcome
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) { out = tr.leafPut(tx, leaf, s0, k, 10*k, false) })
		tr.a.StoreWordDirect(th.P, ccm+ccmConflict, 1<<62)
		if out != oInserted {
			t.Errorf("the dense insert of %d: outcome %d", k, out)
		}
	})
	tr.h.SetFaultInjector(nil)
	if !ok || got != 10*k {
		t.Fatalf("get(%d) = %d,%v after the demotion and the dense insert; want %d", k, got, ok, 10*k)
	}
	if err := tr.Validate(boot.P); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionFaultPoint: the promotion that does not split still passes
// FaultMidSplit, and an abort injected there discards it wholesale — the
// retry promotes, and the leaf is never seen half rewritten.
func TestPromotionFaultPoint(t *testing.T) {
	h, th := treetest.NewDevice(1 << 20)
	tr := New(h, th, DefaultConfig)
	fill(tr, th, 10)
	fi := htm.NewFaultInjector(htm.FaultSpec{Point: htm.FaultMidSplit, Action: htm.ActAbort, Nth: 1})
	h.SetFaultInjector(fi)
	leaf, _ := tr.leafState(th, 1)
	aborts := th.Stats.TotalAborts()
	tr.noteConflicts(th, leaf, tr.a.LoadWord(th.P, leaf+offSeqno), 0, tr.cfg.HotThreshold)
	h.SetFaultInjector(nil)
	if fi.Hits(htm.FaultMidSplit) == 0 || th.Stats.TotalAborts() == aborts {
		t.Fatalf("the promotion passed FaultMidSplit %d times and aborted %d times; want both",
			fi.Hits(htm.FaultMidSplit), th.Stats.TotalAborts()-aborts)
	}
	if _, segs := tr.leafState(th, 1); segs != tr.cfg.Segments || tr.Splits() != 0 {
		t.Fatalf("%d segments in use and %d splits after the retried promotion", segs, tr.Splits())
	}
	wantAll(t, tr, th, 10)
}

// stateWatch counts the state changes of a tree's leaves: after each
// operation it reads every leaf's state word with raw loads, which cost no
// virtual time and so leave the schedule under test alone. (The lockstep
// simulator runs one goroutine at a time.)
type stateWatch struct {
	*Tree
	seen              map[simmem.Addr]uint64
	promoted, demoted *int
}

func (w stateWatch) observe() {
	t := w.Tree
	l := simmem.Addr(t.a.WordRaw(t.meta + metaRoot))
	for d := t.a.WordRaw(t.meta + metaDepth); d > 1; d-- {
		l = simmem.Addr(t.a.WordRaw(t.intChild(l, 0)))
	}
	for ; l != simmem.NilAddr; l = simmem.Addr(t.a.WordRaw(l + offNext)) {
		now := t.a.WordRaw(l + offSegs)
		if was, ok := w.seen[l]; ok && was != now {
			if now == 0 {
				*w.demoted++
			} else {
				*w.promoted++
			}
		}
		w.seen[l] = now
	}
}

func (w stateWatch) Get(th *htm.Thread, k uint64) (uint64, bool) {
	defer w.observe()
	return w.Tree.Get(th, k)
}
func (w stateWatch) Put(th *htm.Thread, k, v uint64) { defer w.observe(); w.Tree.Put(th, k, v) }
func (w stateWatch) Delete(th *htm.Thread, k uint64) bool {
	defer w.observe()
	return w.Tree.Delete(th, k)
}

// TestFuzzerPromotesAndDemotesMidHistory: on the hot tiny geometry the
// schedule-exploration sweep changes leaves' state in both directions while
// it records, and every history it records is linearizable.
func TestFuzzerPromotesAndDemotesMidHistory(t *testing.T) {
	var promoted, demoted int
	mk := func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return stateWatch{New(h, boot, hotTiny()), map[simmem.Addr]uint64{}, &promoted, &demoted}
	}
	seeds := 48
	if testing.Short() {
		seeds = 16
	}
	histories, fail := check.Sweep("euno-adapt-tiny", mk, check.DefaultSweep(seeds))
	if fail != nil {
		t.Fatalf("after %d histories:\n%v\nrepro: %s", histories, fail.Err, fail.ReproLine())
	}
	t.Logf("%d histories, %d promotions and %d demotions in them", histories, promoted, demoted)
	if promoted < histories/4 || demoted < histories/4 {
		t.Fatalf("%d promotions and %d demotions in %d histories; the threshold is too high for the fuzzer to reach the transitions",
			promoted, demoted, histories)
	}
}

// TestDemotionMutantCaught is the checker's self-test for the state
// change: a demotion that leaves the segments' records behind — it reads
// the leaf as if it were dense already.
func TestDemotionMutantCaught(t *testing.T) {
	mutantCaught(t, "euno-adapt-broken", func(tr *Tree) { tr.dropSegs = true }, check.DefaultSweep(48))
}

// TestPromotionMarksMutantCaught is the checker's self-test for the marks
// a promotion counts: a dense leaf keeps none, so a promotion that does
// not add its records to them lets a get or a delete on the hot leaf turn
// a present key away.
func TestPromotionMarksMutantCaught(t *testing.T) {
	mutantCaught(t, "euno-marks-broken", func(tr *Tree) { tr.markless = true }, check.DefaultSweep(48))
}
