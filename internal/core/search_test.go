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
