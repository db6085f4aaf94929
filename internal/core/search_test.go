package core

import (
	"math"
	"slices"
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree/treetest"
	"eunomia/internal/vclock"
)

// TestRunSearchMatchesBisection: the search that enters a run at the line
// its fences predict returns, for every count the run can hold, exactly the
// (index, found) a bisection of the run returns — for every key between the
// fences when they are close, for every key of the run, its neighbours and
// the midpoints between them when they are not, and for keys outside the
// fences. The layouts cover evenly spread keys (the prediction's line), keys
// bunched at either end (its fallback to bisection), fences of 0 and
// MaxUint64 (no prediction) and keys near 2^64; the leaves are a dense run,
// a partitioned leaf's stable region and the +Split HTM run, whose first
// pair does not start a line.
func TestRunSearchMatchesBisection(t *testing.T) {
	splitHTM := AblationConfigs()[0].Cfg
	for _, c := range []struct {
		name string
		cfg  Config
		part bool
	}{{"dense", DefaultConfig, false}, {"partitioned", DefaultConfig, true}, {"+Split HTM", splitHTM, false}} {
		h, th := treetest.NewHostDevice(1 << 20)
		tr := New(h, th, c.cfg)
		max := tr.denseCap
		if c.part {
			max = tr.cfg.StableCap
		}
		leaf := tr.newLeaf(th.P)
		if c.part {
			tr.a.StoreWordDirect(th.P, leaf+offSegs, uint64(tr.cfg.Segments))
		}
		for n := 0; n <= max; n++ {
			const top = math.MaxUint64
			step := top / uint64(n+1)
			for _, l := range []struct {
				name   string
				lo, hi uint64
				key    func(i int) uint64
			}{
				{"even", 1000, 1000 + 8*uint64(n) + 7, func(i int) uint64 { return 1003 + 8*uint64(i) }},
				{"from lo", 0, 8*uint64(n) + 7, func(i int) uint64 { return 8 * uint64(i) }},
				{"bunched low", 500, 500 + 40*uint64(n) + 40, func(i int) uint64 { return 501 + uint64(i) }},
				{"bunched high", 500, 500 + 40*uint64(n) + 40, func(i int) uint64 { return 500 + 40*uint64(n) + 40 - uint64(n-1-i) }},
				{"whole range", 0, top, func(i int) uint64 { return step * uint64(i+1) }},
				{"near 2^64", top - 20*uint64(n) - 20, top - 1, func(i int) uint64 { return top - 1 - 20*uint64(n-1-i) }},
			} {
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = l.key(i)
					tr.a.StoreWordDirect(th.P, tr.stableK(leaf, i), keys[i])
				}
				tr.a.StoreWordDirect(th.P, leaf+offStableCount, uint64(n))
				tr.a.StoreWordDirect(th.P, leaf+offLo, l.lo)
				tr.a.StoreWordDirect(th.P, leaf+offHi, l.hi)
				var probes []uint64
				if l.hi-l.lo < 1<<16 {
					for k := l.lo; k <= l.hi; k++ {
						probes = append(probes, k)
					}
				} else {
					for i, k := range keys {
						probes = append(probes, k-1, k, k+1)
						if i > 0 {
							probes = append(probes, keys[i-1]+(k-keys[i-1])/2)
						}
					}
				}
				probes = append(probes, 0, l.lo, l.lo-1, l.hi, l.hi+1, top)
				type result struct {
					idx   int
					found bool
				}
				got := make([]result, len(probes))
				th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
					for i, k := range probes {
						got[i].idx, got[i].found = tr.stableSearch(tx, leaf, k)
					}
				})
				for i, k := range probes {
					var want result
					if want.idx, want.found = slices.BinarySearch(keys, k); got[i] != want {
						t.Fatalf("%s run of %d, %s keys in [%d, %d]: search(%d) = %v; bisection says %v",
							c.name, n, l.name, l.lo, l.hi, k, got[i], want)
					}
				}
			}
		}
	}
}

// TestPartitionedLeafReadsOneSegment: on a partitioned leaf whose four
// segments all hold records, a get, an update and a delete each read one
// segment line, their key's home: on a device whose read set holds 4 lines
// — the fallback word's, the leaf's metadata line, the stable line the
// fences predict and one more — none served from the directory runs out of
// capacity, and each sees the segment copy.
func TestPartitionedLeafReadsOneSegment(t *testing.T) {
	h := htm.New(simmem.NewArena(1<<20), htm.Config{MaxReadLines: 4, MaxWriteLines: 512})
	th := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, th, DefaultConfig)
	// 33 even keys overflow the dense leaf into 2..32 and 34..66; promoting
	// the left one splits it again, into partitioned leaves of 2..16 (hi
	// 17, so its fences predict the line) and 18..32.
	for k := uint64(2); k <= 66; k += 2 {
		tr.Put(th, k, 10*k)
	}
	tr.heatLeaf(th, tr.leaves(th)[0])
	leaf := tr.leaves(th)[0]
	n := int(tr.a.LoadWord(th.P, leaf+offStableCount))
	if segs := tr.a.LoadWord(th.P, leaf+offSegs); segs != uint64(tr.cfg.Segments) || n != 8 || tr.a.LoadWord(th.P, leaf+offHi) != 17 {
		t.Fatalf("the left leaf has %d segments in use, a run of %d and hi %d; want a partitioned leaf of 2..16 with hi 17",
			segs, n, tr.a.LoadWord(th.P, leaf+offHi))
	}
	for k := uint64(2); k <= 16; k += 2 {
		tr.Put(th, k, 10*k+1) // the shadow copy, in segment (k/2-1) % 4
	}
	for j := 0; j < tr.cfg.Segments; j++ {
		if c := tr.a.LoadWord(th.P, tr.segBase(leaf, j)); c == 0 {
			t.Fatalf("segment %d is empty; the test needs every segment to hold records", j)
		}
	}
	for k := uint64(2); k <= 16; k += 2 {
		tr.Get(th, k) // the directory, on a device too small for the descent
	}
	op := func(what string, k uint64, f func() bool) {
		t.Helper()
		caps := th.Stats.Aborts[htm.AbortCapacity]
		if !f() {
			t.Fatalf("%s(%d) missed its segment copy", what, k)
		}
		if got := th.Stats.Aborts[htm.AbortCapacity] - caps; got != 0 {
			t.Fatalf("%s(%d) ran out of a 4-line read set %d times: it read more than one segment line", what, k, got)
		}
	}
	for k := uint64(2); k <= 16; k += 2 {
		op("get", k, func() bool { v, ok := tr.Get(th, k); return ok && v == 10*k+1 })
		op("update", k, func() bool { tr.Put(th, k, 10*k+2); v, _ := tr.Get(th, k); return v == 10*k+2 })
	}
	for k := uint64(2); k <= 8; k += 2 { // one key per segment, short of a rebalance
		op("delete", k, func() bool { ok := tr.Delete(th, k); _, in := tr.Get(th, k); return ok && !in })
	}
}

// TestRunSearchLoadsOneLine: a get of any key of a full dense leaf of
// consecutive keys loads at most 2 of the leaf's 8 data lines, where a
// bisection loads 3 or 4: on a device whose read set holds 4 lines — the
// fallback word's, the leaf's metadata line and two more — no get served
// from the directory runs out of capacity.
func TestRunSearchLoadsOneLine(t *testing.T) {
	h := htm.New(simmem.NewArena(1<<20), htm.Config{MaxReadLines: 4, MaxWriteLines: 512})
	th := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, th, DefaultConfig)
	d := uint64(tr.denseCap)
	// Half a leaf of keys, then a gap of a half: the split of the full leaf
	// leaves keys 1..d/2 on the left with hi = d, which the second half of
	// its keys fills.
	for k := uint64(1); k <= d/2; k++ {
		tr.Put(th, k, 10*k)
		tr.Put(th, d+k, 10*(d+k))
	}
	tr.Put(th, d+d/2+1, 10*(d+d/2+1))
	for k := d/2 + 1; k <= d; k++ {
		tr.Put(th, k, 10*k)
	}
	leaf := tr.leaves(th)[0]
	if n, hi := tr.a.LoadWord(th.P, leaf+offStableCount), tr.a.LoadWord(th.P, leaf+offHi); n != d || hi != d ||
		tr.a.LoadWord(th.P, leaf+offSegs) != 0 {
		t.Fatalf("the left leaf holds %d keys with hi %d; want a full dense leaf of keys 1..%d with hi %d", n, hi, d, d)
	}
	for k := uint64(1); k <= d; k++ {
		tr.Get(th, k) // the directory, on a device too small for the descent
	}
	for k := uint64(1); k <= d; k++ {
		caps := th.Stats.Aborts[htm.AbortCapacity]
		if v, ok := tr.Get(th, k); !ok || v != 10*k {
			t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, 10*k)
		}
		if got := th.Stats.Aborts[htm.AbortCapacity] - caps; got != 0 {
			t.Fatalf("get(%d) ran out of a 4-line read set %d times: it loaded more than 2 of the leaf's data lines", k, got)
		}
	}
}
