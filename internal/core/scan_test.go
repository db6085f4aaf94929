package core

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/tree/treetest"
)

// scanTree is a tree preloaded with every other key of [0, 2n) in two
// halves, every other leaf heated in between: those are partitioned, and
// the second half's puts leave them both stable and segment records; the
// rest are dense; a scan crosses several of either.
func scanTree(t *testing.T, host bool, n uint64) (*Tree, *htm.Thread) {
	t.Helper()
	return scanTreeCfg(t, host, n, DefaultConfig)
}

// scanTreeCfg is scanTree with any configuration; without Adaptive there
// is nothing to heat and every leaf is partitioned.
func scanTreeCfg(t *testing.T, host bool, n uint64, cfg Config) (*Tree, *htm.Thread) {
	t.Helper()
	h, boot := treetest.NewDevice(1 << 22)
	if host {
		boot = h.NewHostThread(0, 1)
	}
	tr := New(h, boot, cfg)
	for i, k := range rand.New(rand.NewSource(1)).Perm(int(n)) {
		if i == int(n)/2 && cfg.Adaptive {
			for j, l := range tr.leaves(boot) {
				if j%2 == 0 {
					tr.heatLeaf(boot, l)
				}
			}
		}
		tr.Put(boot, 2*uint64(k), uint64(k))
	}
	var dense, part int
	for _, l := range tr.leaves(boot) {
		if tr.a.LoadWord(boot.P, l+offSegs) == 0 {
			dense++
		} else {
			part++
		}
	}
	if cfg.Adaptive && (dense < 8 || part < 8) {
		t.Fatalf("scanTree has %d dense and %d partitioned leaves; want several of both", dense, part)
	}
	return tr, boot
}

// TestScanAllocationFree: once a thread has its scratch, a scan allocates
// nothing — no per-leaf map, no reflection sort, no per-call buffer — on
// a host thread and on a timed one.
func TestScanAllocationFree(t *testing.T) {
	for _, host := range []bool{true, false} {
		tr, th := scanTree(t, host, 4000)
		visit := func(_, _ uint64) bool { return true }
		from := uint64(0)
		allocs := testing.AllocsPerRun(200, func() {
			if n := tr.Scan(th, from%8000, 64, visit); n == 0 {
				t.Fatal("scan visited nothing")
			}
			from += 1237
		})
		if allocs != 0 {
			t.Errorf("host=%v: Scan allocates %.1f times per call, want 0", host, allocs)
		}
	}
}

// TestScanReentrant: the scratch is borrowed for the length of a call, so a
// Scan started from inside fn on the same thread gets a buffer of its own
// and the outer scan's records survive it.
func TestScanReentrant(t *testing.T) {
	tr, th := scanTree(t, true, 2000)
	var outer []uint64
	tr.Scan(th, 0, 200, func(k, _ uint64) bool {
		outer = append(outer, k)
		inner := 0
		tr.Scan(th, 3000, 40, func(ik, _ uint64) bool {
			if want := 3000 + 2*uint64(inner); ik != want {
				t.Fatalf("inner scan key %d, want %d", ik, want)
			}
			inner++
			return true
		})
		return true
	})
	if len(outer) != 200 {
		t.Fatalf("outer scan visited %d keys, want 200", len(outer))
	}
	for i, k := range outer {
		if k != 2*uint64(i) {
			t.Fatalf("outer[%d] = %d, want %d: the nested scan clobbered the outer buffer", i, k, 2*i)
		}
	}
	if _, ok := th.Scratch.(*threadScratch); !ok {
		t.Fatal("scratch not returned to the thread")
	}
}

// TestScanCallbackPutBuildsOwnScratch: a Put issued from a scan callback
// that runs the leaf's maintenance (a split stages the leaf's records) finds
// the scratch lent out and builds its own, so the records the scan has yet
// to deliver survive it.
func TestScanCallbackPutBuildsOwnScratch(t *testing.T) {
	tr, th := scanTree(t, true, 2000)
	splits := tr.Splits()
	var got []uint64
	next := uint64(1)
	tr.Scan(th, 0, 400, func(k, _ uint64) bool {
		got = append(got, k)
		// Odd keys well past the scan's position, dense enough to split.
		for i := 0; i < 8; i++ {
			tr.Put(th, 3001+2*next, next)
			next++
		}
		return true
	})
	if tr.Splits() == splits {
		t.Fatal("the nested puts split no leaf; the test exercises nothing")
	}
	if len(got) != 400 {
		t.Fatalf("scan visited %d keys, want 400", len(got))
	}
	for i, k := range got {
		if k != 2*uint64(i) {
			t.Fatalf("scan[%d] = %d, want %d: a nested put clobbered the scan's buffer", i, k, 2*i)
		}
	}
}

// TestPutMaintenanceAllocationFree: compactions and splits stage a leaf's
// records and the split's path in the thread's scratch, not in buffers made
// inside a transaction body that retries, so a warmed-up thread's puts and
// deletes allocate nothing but the leaf directory's O(log n) rebuilds — on
// the cold tree's dense leaves, with their in-leaf shift, and on leaves that
// are always hot (Adaptive off).
func TestPutMaintenanceAllocationFree(t *testing.T) {
	for _, adaptive := range []bool{true, false} {
		cfg := DefaultConfig
		cfg.Adaptive = adaptive
		tr, th := scanTreeCfg(t, true, 4000, cfg)
		next := uint64(0)
		churn := func() {
			for i := 0; i < 20000; i++ {
				k := 8000 + next
				tr.Put(th, k, k)
				if next%2 == 1 {
					tr.Delete(th, k-1)
					// An update well behind the growing edge: a shadow copy
					// on a partitioned leaf, and so its compactions.
					tr.Put(th, 8000+next/2|1, k)
				}
				next++
			}
		}
		// Warm up what grows to a high-water mark and then stays: the Tx's
		// own buffers and tables, the split path, and the arena's per-size
		// free lists — one per staging size, which on dense leaves is any
		// up to a full run's and the record that overflowed it. The widest
		// transaction — a full dense leaf's split under an index split on
		// every level — is too rare to count on: one wider than any,
		// aborted, grows the Tx to it.
		churn()
		for w := 1; w <= 2*(maxRun+1); w += simmem.WordsPerLine {
			tr.a.Free(th.P, tr.a.AllocAligned(th.P, w, simmem.TagReserved), w, simmem.TagReserved)
		}
		const wide = 64 * simmem.WordsPerLine
		block := tr.a.AllocAligned(th.P, wide, simmem.TagReserved)
		th.Run(func(tx *htm.Tx) {
			for i := simmem.Addr(0); i < wide; i++ {
				tx.Store(block+i, 1)
			}
			tx.Abort(1)
		})
		tr.a.Free(th.P, block, wide, simmem.TagReserved)
		splits, compactions := tr.Splits(), tr.Compactions()
		// One run measured (after AllocsPerRun's own warm-up run): the
		// integer average over a single run hides no allocation. The leaf
		// directory doubles as the leaves do, two allocations a time.
		var rebuilds int
		allocs := testing.AllocsPerRun(1, func() {
			size := len(tr.dir.Load().slots)
			churn()
			rebuilds = bits.Len(uint(len(tr.dir.Load().slots))) - bits.Len(uint(size))
		})
		if tr.Splits() == splits || tr.Compactions() == compactions {
			t.Fatalf("adaptive=%v: churn caused %d splits and %d compactions; the test needs both",
				adaptive, tr.Splits()-splits, tr.Compactions()-compactions)
		}
		if _, segs := tr.leafState(th, 8000+next-1); (segs == 0) != adaptive {
			t.Fatalf("adaptive=%v: the leaf the churn ends on has %d segments in use", adaptive, segs)
		}
		if allocs > float64(2*rebuilds) {
			t.Errorf("adaptive=%v: 30000 puts and 10000 deletes allocate %.0f times, want no more than the directory's %d rebuilds' 2 each",
				adaptive, allocs, rebuilds)
		}
	}
}

// TestScanRegionOfFullDenseLeavesAllocationFree: the scratch holds a whole
// scan region of dense leaves at their fullest, which is more than the
// partitioned leafCap it was sized by before there were dense leaves.
func TestScanRegionOfFullDenseLeavesAllocationFree(t *testing.T) {
	tr, th := newEuno(t, DefaultConfig)
	if tr.denseCap <= tr.leafCap() {
		t.Fatalf("a dense leaf's %d records do not exceed leafCap %d; the test exercises nothing", tr.denseCap, tr.leafCap())
	}
	// Ascending puts split every full leaf in halves and never touch the
	// left one again; a second ascending pass between the first one's keys
	// doubles each, to the brim.
	n := uint64(4*tr.scanLeaves) * uint64(tr.denseCap)
	for _, off := range []uint64{0, 2} {
		for k := uint64(4); k <= 4*n; k += 4 {
			tr.Put(th, k+off, k)
		}
	}
	run, longest := 0, 0
	for _, l := range tr.leaves(th) {
		if tr.a.LoadWord(th.P, l+offSegs) != 0 || int(tr.a.LoadWord(th.P, l+offStableCount)) != tr.denseCap {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	if longest < 2*tr.scanLeaves {
		t.Fatalf("%d full dense leaves in a row, want two scan regions' %d", longest, 2*tr.scanLeaves)
	}
	visit := func(_, _ uint64) bool { return true }
	tr.Scan(th, 0, 1, visit) // the thread's scratch
	allocs := testing.AllocsPerRun(20, func() {
		if got := tr.Scan(th, 0, int(2*n), visit); got != int(2*n) {
			t.Fatalf("scan visited %d keys, want %d", got, 2*n)
		}
	})
	if allocs != 0 {
		t.Errorf("a scan over full dense leaves allocates %.0f times, want 0", allocs)
	}
}

// leaves walks the leaf chain from the leftmost leaf with direct loads.
func (t *Tree) leaves(th *htm.Thread) []simmem.Addr {
	var out []simmem.Addr
	for l, _ := t.leafState(th, 0); l != simmem.NilAddr; l = simmem.Addr(t.a.LoadWord(th.P, l+offNext)) {
		out = append(out, l)
	}
	return out
}

// TestScanLeafMatchesModel: the one reader of a leaf's records returns, for
// every from and every limit, what a map of the random puts and deletes
// holds between the leaf's fences — on leaves those operations leave in
// every state the layout has: shadow copies, tombstones, a tombstone under
// a live segment copy, empty and full segments, and dense leaves with and
// without tombstones. Odd seeds keep every leaf hot, even ones leave them
// cold.
func TestScanLeafMatchesModel(t *testing.T) {
	const keys = 160
	var shadows, tombs, revived, emptySegs, fullSegs, dense, denseTombs int
	for seed := int64(1); seed <= 20; seed++ {
		tr, th := newEuno(t, DefaultConfig)
		rng := rand.New(rand.NewSource(seed))
		model := map[uint64]uint64{}
		for i := 0; i < 600; i++ {
			if seed%2 == 1 && i%50 == 0 {
				tr.heat(th)
			}
			if k := uint64(rng.Intn(keys)); rng.Intn(3) == 0 {
				tr.Delete(th, k)
				delete(model, k)
			} else {
				tr.Put(th, k, uint64(i)+1)
				model[k] = uint64(i) + 1
			}
		}
		leaves := tr.leaves(th)
		th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
			for _, leaf := range leaves {
				segs := tr.leafSegs(tx, leaf)
				if segs == 0 {
					dense++
				}
				for j := 0; j < segs; j++ {
					switch n := int(tx.Load(tr.segBase(leaf, j))); n {
					case 0:
						emptySegs++
					case tr.cfg.SegCap:
						fullSegs++
					}
				}
				for i, n := 0, int(tx.Load(leaf+offStableCount)); i < n; i++ {
					k, dead := tx.Load(tr.stableK(leaf, i)), tx.Load(tr.stableV(leaf, i)) == tree.Tombstone
					inSeg := false
					for j := 0; j < segs && !inSeg; j++ {
						_, _, inSeg = tr.segSearch(tx, tr.segBase(leaf, j), k)
					}
					switch {
					case dead && segs == 0:
						denseTombs++
					case dead && inSeg:
						revived++
					case dead:
						tombs++
					case inSeg:
						shadows++
					}
				}
				var live []pair
				for k := tx.Load(leaf + offLo); k <= min(tx.Load(leaf+offHi), keys); k++ {
					if v, ok := model[k]; ok {
						live = append(live, pair{k, v})
					}
				}
				for from := uint64(0); from <= keys; from++ {
					want := live
					for len(want) > 0 && want[0].k < from {
						want = want[1:]
					}
					for limit := 1; limit <= len(want)+1; limit++ {
						pre := []pair{{1 << 40, 7}} // what the region already holds stays
						got := tr.scanLeaf(tx, leaf, segs, from, pre, limit+1)
						w := want[:min(limit, len(want))]
						if len(got) != len(w)+1 || got[0] != pre[0] || !slices.Equal(got[1:], w) {
							t.Fatalf("seed %d leaf %d from %d limit %d: scanLeaf = %v, want %v", seed, leaf, from, limit, got[1:], w)
						}
					}
				}
			}
		})
	}
	if shadows == 0 || tombs == 0 || revived == 0 || emptySegs == 0 || fullSegs == 0 || dense == 0 || denseTombs == 0 {
		t.Fatalf("coverage: %d shadow copies, %d tombstones, %d tombstones under a segment copy, %d empty and %d full segments, %d dense leaves with %d tombstones; want all > 0",
			shadows, tombs, revived, emptySegs, fullSegs, dense, denseTombs)
	}
}

// TestScanWorkBound pins what an uncontended scan costs on either proc:
// Scan(from, 16) is one lower region that walks the leaf chain, after the
// upper region only when neither from's directory bucket's leaf nor one at
// most dirHops right-links on covers from — one attempt on a hit, two on a
// miss, wherever it starts — with fewer Tx loads than the
// one-region-per-leaf protocol it replaced spent on the same 214 scans
// (20 521, and 655 attempts); and it leaves no trace outside its
// read set: no CCM line changes version (the scan takes no advisory lock),
// and the arena's live, peak and reserved-keys bytes do not move.
func TestScanWorkBound(t *testing.T) {
	const parentLoads = 20521
	for _, host := range []bool{true, false} {
		tr, th := scanTree(t, host, 4000)
		a := tr.a
		visit := func(_, _ uint64) bool { return true }
		tr.Scan(th, 0, 16, visit) // the thread's scratch
		var ccm []uint64
		for _, l := range tr.leaves(th) {
			ccm = append(ccm, a.LineState(tr.ccmAddr(l).Line()))
		}
		live, peak := a.LiveBytes(), a.PeakBytes()
		loads := th.Stats.TxLoads
		var hits int
		for from := uint64(0); from < 7900; from += 37 {
			want := uint64(2)
			l := simmem.Addr(tr.dir.Load().slot(from).Load())
			for hop := 0; l != simmem.NilAddr && hop <= dirHops && a.WordRaw(l+offLo) <= from; hop++ {
				if from <= a.WordRaw(l+offHi) {
					want, hits = 1, hits+1
					break
				}
				l = simmem.Addr(a.WordRaw(l + offNext))
			}
			before := th.Stats.Attempts
			n := tr.Scan(th, from, 16, func(_, _ uint64) bool {
				if got := a.BytesByTag(simmem.TagReserved); got != 0 {
					t.Fatalf("host=%v: %d reserved bytes during a scan, want 0", host, got)
				}
				return true
			})
			if got := th.Stats.Attempts - before; n != 16 || got != want {
				t.Fatalf("host=%v: Scan(%d, 16) visited %d keys in %d attempts, want 16 in %d", host, from, n, got, want)
			}
		}
		if hits == 0 || hits == 214 {
			t.Fatalf("host=%v: %d of 214 scans found their first leaf in the directory; the test wants hits and misses", host, hits)
		}
		if got := th.Stats.TxLoads - loads; got >= parentLoads {
			t.Errorf("host=%v: 214 scans cost %d Tx loads, want fewer than the per-leaf protocol's %d", host, got, parentLoads)
		}
		for i, l := range tr.leaves(th) {
			if got := a.LineState(tr.ccmAddr(l).Line()); got != ccm[i] {
				t.Fatalf("host=%v: leaf %d's CCM line moved %#x -> %#x across scans", host, l, ccm[i], got)
			}
		}
		if a.LiveBytes() != live || a.PeakBytes() != peak || a.BytesByTag(simmem.TagReserved) != 0 {
			t.Fatalf("host=%v: arena moved across scans: live %d -> %d, peak %d -> %d, reserved %d",
				host, live, a.LiveBytes(), peak, a.PeakBytes(), a.BytesByTag(simmem.TagReserved))
		}
	}
}

// TestScanOrderedAcrossRegionsUnderSplits: a Scan(from, 256) runs several
// lower regions; while another goroutine splits the very leaves it walks,
// the keys it delivers stay strictly increasing across region boundaries
// and none of the preloaded keys in its range is skipped.
func TestScanOrderedAcrossRegionsUnderSplits(t *testing.T) {
	tr, th := scanTree(t, true, 4000) // even keys 0..7998
	splits := tr.Splits()
	stop := make(chan struct{})
	done := make(chan struct{})
	w := tr.h.NewHostThread(1, 9)
	go func() {
		defer close(done)
		for k := uint64(1); ; k = (k + 2) % 8000 { // odd keys, everywhere
			select {
			case <-stop:
				return
			default:
				tr.Put(w, k, k)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	// At least 300 rounds, and more until the writer has split something:
	// 300 scans take ~10 ms, less than the writer may have to wait for its
	// first time slice, and on one core it runs only when the scanner yields.
	for round := 0; round < 300 || (tr.Splits() == splits && round < 100_000); round++ {
		if tr.Splits() == splits {
			runtime.Gosched()
		}
		from := uint64(round*97) % 7000
		last, seen, evens := uint64(0), false, 0
		n := tr.Scan(th, from, 256, func(k, _ uint64) bool {
			if k < from || (seen && k <= last) {
				t.Fatalf("round %d: Scan(%d, 256) delivered %d after %d", round, from, k, last)
			}
			if k&1 == 0 {
				if want := (from+1)&^1 + 2*uint64(evens); k != want {
					t.Fatalf("round %d: Scan(%d, 256) delivered even key %d, want %d: a preloaded key was skipped", round, from, k, want)
				}
				evens++
			}
			last, seen = k, true
			return true
		})
		if n != 256 {
			t.Fatalf("round %d: Scan(%d, 256) visited %d keys", round, from, n)
		}
	}
	if tr.Splits() == splits {
		t.Fatal("the writer split no leaf; the test exercises nothing")
	}
}
