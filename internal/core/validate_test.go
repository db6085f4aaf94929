package core

import (
	"math"
	"strings"
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree/treetest"
	"eunomia/internal/vclock"
)

func validateOrFail(t *testing.T, tr *Tree, boot *htm.Thread) {
	t.Helper()
	if err := tr.Validate(boot.P); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAfterSequentialAndReverseFill(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		tr, boot := newEuno(t, DefaultConfig)
		const n = 3000
		for i := 0; i < n; i++ {
			k := uint64(i + 1)
			if reverse {
				k = uint64(n - i)
			}
			tr.Put(boot, k, k)
		}
		validateOrFail(t, tr, boot)
	}
}

func TestValidateAfterRandomChurn(t *testing.T) {
	for _, ab := range AblationConfigs() {
		ab := ab
		t.Run(ab.Name, func(t *testing.T) {
			tr, boot := newEuno(t, ab.Cfg)
			r := vclock.NewRand(77)
			for i := 0; i < 8000; i++ {
				k := uint64(r.Intn(900)) + 1
				switch r.Intn(4) {
				case 0, 1:
					tr.Put(boot, k, r.Uint64()>>1)
				case 2:
					tr.Delete(boot, k)
				case 3:
					tr.Get(boot, k)
				}
			}
			validateOrFail(t, tr, boot)
		})
	}
}

func TestValidateAfterConcurrentSim(t *testing.T) {
	h, _ := treetest.NewDevice(1 << 24)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, boot, DefaultConfig)
	sim := vclock.NewSim(8, 0)
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+3)
		r := vclock.NewRand(uint64(p.ID()) + 19)
		for i := 0; i < 800; i++ {
			k := uint64(r.Intn(1200)) + 1
			switch r.Intn(5) {
			case 0, 1, 2:
				tr.Put(th, k, k<<8)
			case 3:
				tr.Delete(th, k)
			default:
				tr.Scan(th, k, 5, func(uint64, uint64) bool { return true })
			}
		}
	})
	validateOrFail(t, tr, boot)
}

func TestValidateDetectsCorruption(t *testing.T) {
	// Sanity-check the validator itself: deliberately corrupt a leaf in
	// each of its two states and confirm it notices.
	tr, boot := newEuno(t, DefaultConfig)
	for i := uint64(1); i <= 200; i++ {
		tr.Put(boot, i, i)
	}
	validateOrFail(t, tr, boot)
	corrupt := func(what string, addr simmem.Addr, v uint64) {
		t.Helper()
		old := tr.a.LoadWord(boot.P, addr)
		tr.a.StoreWordDirect(boot.P, addr, v)
		if err := tr.Validate(boot.P); err == nil {
			t.Fatalf("validator accepted %s", what)
		}
		tr.a.StoreWordDirect(boot.P, addr, old)
		validateOrFail(t, tr, boot)
	}

	leaf, segs := tr.leafState(boot, 100)
	if segs != 0 {
		t.Fatalf("a leaf no operation ever aborted on has %d segments in use, want a dense leaf", segs)
	}
	corrupt("an unsorted dense run", tr.stableK(leaf, 0), tr.a.LoadWord(boot.P, tr.stableK(leaf, 1))+1)
	corrupt("a dense run longer than the data lines", leaf+offStableCount, uint64(tr.denseCap)+1)
	corrupt("a state word that is neither 0 nor Segments", leaf+offSegs, uint64(tr.cfg.Segments)-1)

	tr.heat(boot)
	validateOrFail(t, tr, boot)
	leaf, segs = tr.leafState(boot, 100)
	if segs != tr.cfg.Segments {
		t.Fatalf("a heated leaf has %d segments in use, want %d", segs, tr.cfg.Segments)
	}
	corrupt("an unsorted stable region", tr.stableK(leaf, 0), tr.a.LoadWord(boot.P, tr.stableK(leaf, 1))+1)
	k0 := tr.a.LoadWord(boot.P, tr.stableK(leaf, 0))
	tr.Put(boot, k0, 1) // its shadow copy: segment 0's first record
	validateOrFail(t, tr, boot)
	corrupt("a segment copy outside its home", tr.segBase(leaf, 0)+1, tr.a.LoadWord(boot.P, tr.stableK(leaf, 1)))
	corrupt("an oversized segment count", tr.segBase(leaf, 0), uint64(tr.cfg.SegCap)+5)
	corrupt("a partitioned leaf whose run overflows its stable region", leaf+offStableCount, uint64(tr.cfg.StableCap)+1)
}

// TestValidateDetectsFenceCorruption: one corruption of the fences per rule
// Validate checks, each reported by that rule. Even keys only, so that a
// leaf's hi fence, one below an even separator, lies past its last key.
func TestValidateDetectsFenceCorruption(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	for k := uint64(2); k <= 400; k += 2 {
		tr.Put(boot, k, k)
	}
	validateOrFail(t, tr, boot)
	leaves := tr.leaves(boot)
	first, mid, next, last := leaves[0], leaves[len(leaves)/2], leaves[len(leaves)/2+1], leaves[len(leaves)-1]
	sep := tr.a.LoadWord(boot.P, next+offLo)
	if sep%2 != 0 || len(leaves) < 4 {
		t.Fatalf("%d leaves, separator %d; want several leaves and even separators", len(leaves), sep)
	}
	type word struct {
		addr simmem.Addr
		v    uint64
	}
	for _, c := range []struct {
		rule, report string
		words        []word
	}{
		{"the first leaf's lo is 0", "want 0", []word{{first + offLo, 1}}},
		{"the last leaf's hi is MaxUint64", "want MaxUint64", []word{{last + offHi, math.MaxUint64 - 1}}},
		{"a leaf's lo is the previous hi + 1", "the previous hi + 1", []word{{next + offLo, sep + 1}}},
		{"every key lies within its leaf's fences", "outside its fences", []word{{mid + offHi, sep - 3}, {next + offLo, sep - 2}}},
		{"the fences are the separators' bounds", "the separators bound it", []word{{mid + offHi, sep - 2}, {next + offLo, sep - 1}}},
	} {
		old := make([]uint64, len(c.words))
		for i, w := range c.words {
			old[i] = tr.a.LoadWord(boot.P, w.addr)
			tr.a.StoreWordDirect(boot.P, w.addr, w.v)
		}
		if err := tr.Validate(boot.P); err == nil || !strings.Contains(err.Error(), c.report) {
			t.Fatalf("rule %q: a corruption of it is reported as %v", c.rule, err)
		}
		for i, w := range c.words {
			tr.a.StoreWordDirect(boot.P, w.addr, old[i])
		}
		validateOrFail(t, tr, boot)
	}
}

func TestValidateUnderCapacityPressure(t *testing.T) {
	a := simmem.NewArena(1 << 22)
	h := htm.New(a, htm.Config{MaxReadLines: 12, MaxWriteLines: 12})
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, boot, DefaultConfig)
	r := vclock.NewRand(5)
	for i := 0; i < 4000; i++ {
		tr.Put(boot, uint64(r.Intn(800))+1, uint64(i))
	}
	validateOrFail(t, tr, boot)
}
