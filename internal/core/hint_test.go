package core

import (
	"testing"

	"eunomia/internal/check"
	"eunomia/internal/htm"
	"eunomia/internal/tree"
	"eunomia/internal/tree/treetest"
	"eunomia/internal/vclock"
)

// attempts runs op on th and returns the transactions it took.
func attempts(th *htm.Thread, op func()) uint64 {
	before := th.Stats.Attempts
	op()
	return th.Stats.Attempts - before
}

// TestLeafHintSkipsUpperRegion: once a thread has found a key's leaf, a get,
// put or delete of that key is the lower region alone — on a cold dense leaf
// and on a hot partitioned one, whose CCM the hit consults as a descent's
// would.
func TestLeafHintSkipsUpperRegion(t *testing.T) {
	for _, hot := range []bool{false, true} {
		tr, th := newEuno(t, DefaultConfig)
		fill(tr, th, 12)
		if hot {
			tr.heat(th)
		}
		steps := []struct {
			name string
			op   func() bool
		}{
			{"get", func() bool { v, ok := tr.Get(th, 7); return ok && v == 70 }},
			{"put", func() bool { tr.Put(th, 7, 77); return true }},
			{"get after put", func() bool { v, ok := tr.Get(th, 7); return ok && v == 77 }},
			{"delete", func() bool { return tr.Delete(th, 7) }},
		}
		tr.Get(th, 7)
		for _, s := range steps {
			ok := false
			if n := attempts(th, func() { ok = s.op() }); n != 1 || !ok {
				t.Fatalf("hot=%v: hinted %s took %d transactions (result ok: %v), want 1", hot, s.name, n, ok)
			}
		}
	}
}

// TestLeafHintSplitCaughtBeforeTheRegion: after another thread splits the
// hinted leaf, the direct seqno load sends the next operation down the upper
// region before any lower region runs on the stale leaf, so no root retry is
// counted; the descent refills the hint.
func TestLeafHintSplitCaughtBeforeTheRegion(t *testing.T) {
	tr, th := newEuno(t, DefaultConfig)
	fill(tr, th, uint64(tr.denseCap))
	tr.Get(th, 1)
	w := tr.h.NewThread(vclock.NewWallProc(1, 0), 2)
	splits, retries := tr.Splits(), tr.RootRetries()
	tr.Put(w, uint64(tr.denseCap)+1, 1)
	if tr.Splits() == splits {
		t.Fatal("the put split no leaf; the test exercises nothing")
	}
	for i, want := range []uint64{2, 1} {
		var v uint64
		if n := attempts(th, func() { v, _ = tr.Get(th, 1) }); n != want || v != 10 {
			t.Fatalf("get %d after the split: %d transactions, value %d; want %d and 10", i, n, v, want)
		}
	}
	if got := tr.RootRetries() - retries; got != 0 {
		t.Fatalf("%d root retries; the pre-check should have caught the split", got)
	}
}

// TestLeafHintFencesAreExact: a hint covers exactly its leaf's keys, lo..hi
// from the separators: the last key below the right neighbour's separator
// is served by it, the separator itself — in the same set — descends.
func TestLeafHintFencesAreExact(t *testing.T) {
	tr, th := newEuno(t, hotTiny())
	for k := uint64(0); k < 16; k++ { // one hint set, more keys than a leaf holds
		tr.Put(th, k, 10*k+1)
	}
	leaves := tr.leaves(th)
	if len(leaves) < 2 {
		t.Fatalf("%d leaves, want at least 2", len(leaves))
	}
	sep := tr.a.LoadWord(th.P, tr.stableK(leaves[1], 0))
	cold := tr.h.NewThread(vclock.NewWallProc(1, 0), 2)
	tr.Get(cold, 0)
	for _, c := range []struct{ key, want uint64 }{{sep - 1, 1}, {sep, 2}, {sep, 1}} {
		var v uint64
		if n := attempts(cold, func() { v, _ = tr.Get(cold, c.key) }); n != c.want || v != 10*c.key+1 {
			t.Fatalf("get(%d) with separator %d: %d transactions, value %d; want %d and %d", c.key, sep, n, v, c.want, 10*c.key+1)
		}
	}
}

// TestLeafHintTiedToItsTree: one thread alternating between two trees on
// one device — whose leaves have equal seqnos and cover the same keys —
// never takes one tree's hint into the other.
func TestLeafHintTiedToItsTree(t *testing.T) {
	h, th := treetest.NewDevice(1 << 22)
	a, b := New(h, th, DefaultConfig), New(h, th, DefaultConfig)
	for k := uint64(1); k <= 8; k++ {
		a.Put(th, k, k)
		b.Put(th, k, 100+k)
	}
	for round := 0; round < 4; round++ {
		for _, c := range []struct {
			tr   *Tree
			base uint64
		}{{a, 0}, {b, 100}} {
			for _, k := range []uint64{3, 3} {
				if v, ok := c.tr.Get(th, k); !ok || v != c.base+k {
					t.Fatalf("round %d: get(%d) = %d,%v want %d", round, k, v, ok, c.base+k)
				}
			}
		}
	}
}

// TestLeafHintGateClosesWithoutReuse: uniform gets over a million keys
// almost never meet a hinted leaf again; the gate closes, and 15 ops in 16
// then neither look up nor fill. A key used again opens it at the next op
// that looks.
func TestLeafHintGateClosesWithoutReuse(t *testing.T) {
	const n = 1 << 20
	h, th := treetest.NewHostDevice(1 << 24)
	tr := New(h, th, DefaultConfig)
	for k := uint64(0); k < n; k++ {
		tr.Put(th, k, k+1)
	}
	r := vclock.NewRand(5)
	for i := 0; i < 10_000; i++ {
		k := r.Uint64() % n
		if v, ok := tr.Get(th, k); !ok || v != k+1 {
			t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, k+1)
		}
	}
	hs := &tr.scratch(th).hints
	if hs.misses != hintMiss {
		t.Fatalf("%d misses in a row after 10 000 uniform gets; the gate is open", hs.misses)
	}
	for i := 0; i < 2*hintEvery && hs.misses == hintMiss; i++ {
		tr.Get(th, 42)
	}
	if n := attempts(th, func() { tr.Get(th, 42) }); hs.misses != 0 || n != 1 {
		t.Fatalf("a key used %d times running left %d misses in a row and a get of %d transactions; want the gate open", 2*hintEvery, hs.misses, n)
	}
}

// TestHintFenceMutantCaught is the checker's self-test for the hint: a
// stored upper fence one separator too wide sends operations on the next
// leaf's keys to the wrong leaf, and the sweep the healthy tree passes must
// reject it with a shrunk case that replays.
func TestHintFenceMutantCaught(t *testing.T) {
	mk := func(h *htm.HTM, boot *htm.Thread) tree.KV {
		tr := New(h, boot, hotTiny())
		tr.widenFence = true
		return tr
	}
	histories, fail := check.Sweep("euno-hint-broken", mk, check.DefaultSweep(48))
	if fail == nil {
		t.Fatalf("the widened fence survived %d histories; the checker cannot see a hint go wrong", histories)
	}
	t.Logf("caught after %d histories: %s", histories, fail.Workload)
	if base := check.DefaultWorkload(); fail.Workload.Ops >= base.Ops && fail.Workload.Procs >= base.Procs && fail.Workload.Keys >= base.Keys {
		t.Errorf("shrinking reduced nothing: %s (base %s)", fail.Workload, base)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := check.RunWorkload(mk, fail.Workload, fail.Fault); err == nil {
			t.Fatalf("replay %d of the shrunk case passed; the failure is not deterministic", i)
		}
	}
	healthy := func(h *htm.HTM, boot *htm.Thread) tree.KV { return New(h, boot, hotTiny()) }
	if _, _, err := check.RunWorkload(healthy, fail.Workload, fail.Fault); err != nil {
		t.Fatalf("the healthy tree fails the mutant's schedule:\n%v", err)
	}
}
