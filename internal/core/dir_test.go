package core

import (
	"math/rand"
	"testing"

	"eunomia/internal/check"
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
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

// TestLeafDirSkipsUpperRegion: once the directory holds a key's leaf, a
// get, put or delete of that key is the lower region alone, and so is the
// first page of a scan from it — on a cold dense leaf and on a hot
// partitioned one, whose CCM the hit consults as a descent's would.
func TestLeafDirSkipsUpperRegion(t *testing.T) {
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
			{"scan", func() bool { return tr.Scan(th, 7, 4, func(_, _ uint64) bool { return true }) == 4 }},
			{"delete", func() bool { return tr.Delete(th, 7) }},
		}
		tr.Get(th, 7)
		for _, s := range steps {
			ok := false
			if n := attempts(th, func() { ok = s.op() }); n != 1 || !ok {
				t.Fatalf("hot=%v: %s from the directory took %d transactions (result ok: %v), want 1", hot, s.name, n, ok)
			}
		}
	}
}

// TestLeafDirServesUniformKeys: on a tree of many leaves, any key whose
// bucket an operation on it filled is served from the directory — a get, a
// put and a scan's first page of a key drawn uniformly each cost one
// transaction after one get of it — and one pass over every key leaves
// nearly every uniform get a hit: a bucket that straddles two leaves settles
// on the left one and reaches the right one along next.
func TestLeafDirServesUniformKeys(t *testing.T) {
	const n = 1 << 16
	h, _ := treetest.NewDevice(1 << 22)
	th := h.NewHostThread(0, 1)
	tr := New(h, th, DefaultConfig)
	for _, k := range rand.New(rand.NewSource(1)).Perm(n) {
		tr.Put(th, uint64(k), uint64(k)+1)
	}
	r := vclock.NewRand(5)
	visit := func(_, _ uint64) bool { return true }
	for i := 0; i < 2000; i++ {
		k := r.Uint64() % n
		tr.Get(th, k)
		for _, op := range []func(){
			func() {
				if v, ok := tr.Get(th, k); !ok || v != k+1 {
					t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, k+1)
				}
			},
			func() { tr.Put(th, k, k+1) },
			func() { tr.Scan(th, k, 8, visit) },
		} {
			if got := attempts(th, op); got != 1 {
				t.Fatalf("an operation on key %d after a get of it took %d transactions, want 1", k, got)
			}
		}
	}
	for k := uint64(0); k < n; k++ {
		tr.Get(th, k)
	}
	const gets = 10_000
	var used uint64
	for i := 0; i < gets; i++ {
		k := r.Uint64() % n
		used += attempts(th, func() { tr.Get(th, k) })
	}
	hits := 2*gets - used
	t.Logf("%d leaves, %d buckets: %d of %d uniform gets served from the directory", tr.Splits()+1, len(tr.dir.Load().slots), hits, gets)
	if hits < gets-gets/1000 {
		t.Fatalf("%d of %d uniform gets hit the directory, want at least %d", hits, gets, gets-gets/1000)
	}
}

// TestLeafDirSplitCaughtBeforeTheRegion: after another thread splits a leaf
// the directory holds, an operation on a key that moved to the new right
// leaf finds the stale leaf's fences below it and moves right along next
// before any lower region runs, so it is one transaction and no root retry;
// a key that stayed is still served, though the split bumped the seqno.
func TestLeafDirSplitCaughtBeforeTheRegion(t *testing.T) {
	tr, th := newEuno(t, DefaultConfig)
	n := 2 * uint64(tr.denseCap)
	fill(tr, th, n) // ascending: the last leaf ends full
	leaves := tr.leaves(th)
	last := leaves[len(leaves)-1]
	stays := tr.a.LoadWord(th.P, last+offLo)
	if d := tr.dir.Load(); tr.a.LoadWord(th.P, last+offStableCount) != uint64(tr.denseCap) ||
		tr.Splits()+2 > uint64(len(d.slots)/2) || d.slot(n) == d.slot(stays) {
		t.Fatalf("%d leaves and %d buckets: the next split must find no room, rebuild no directory, and part keys %d and %d of different buckets",
			len(leaves), len(d.slots), n, stays)
	}
	tr.Get(th, n)
	tr.Get(th, stays)
	w := tr.h.NewThread(vclock.NewWallProc(1, 0), 2)
	splits, retries := tr.Splits(), tr.RootRetries()
	tr.Put(w, n+1, 10*(n+1))
	if tr.Splits() != splits+1 || tr.a.LoadWord(th.P, last+offHi) >= n {
		t.Fatalf("the put made %d splits and left the leaf's hi at %d; want one split moving %d right", tr.Splits()-splits, tr.a.LoadWord(th.P, last+offHi), n)
	}
	for i, key := range []uint64{n, n, stays} {
		var v uint64
		if got := attempts(th, func() { v, _ = tr.Get(th, key) }); got != 1 || v != 10*key {
			t.Fatalf("get %d of %d after the split: %d transactions, value %d; want 1 and %d", i, key, got, v, 10*key)
		}
	}
	if got := tr.RootRetries() - retries; got != 0 {
		t.Fatalf("%d root retries; the probe's fences should have caught the split", got)
	}
	if got := simmem.Addr(tr.dir.Load().slot(n).Load()); got != last {
		t.Fatalf("key %d's bucket holds leaf %d after the move right, want the left leaf %d", n, got, last)
	}
}

// TestLeafDirFencesAreExact: a bucket serves exactly the keys its leaf's
// fences cover, and those of the dirHops leaves right of it, and it settles
// on the leftmost leaf its keys need. At a leaf boundary inside one bucket,
// while the bucket holds the right leaf the last key of the left leaf —
// below the right leaf's lo — descends once and leaves the left leaf in the
// bucket; from then on both that key and the separator are one
// transaction, the separator one hop along next.
func TestLeafDirFencesAreExact(t *testing.T) {
	tr, th := newEuno(t, DefaultConfig)
	// In a random order, so that the separators fall anywhere in a bucket.
	for _, k := range rand.New(rand.NewSource(1)).Perm(2000) {
		tr.Put(th, uint64(k)+1, 10*(uint64(k)+1))
	}
	d := tr.dir.Load()
	var sep uint64
	var left, right simmem.Addr
	leaves := tr.leaves(th)
	for i, l := range leaves[1:] {
		if lo := tr.a.LoadWord(th.P, l+offLo); d.slot(lo-1) == d.slot(lo) {
			sep, left, right = lo, leaves[i], l
			break
		}
	}
	if sep == 0 {
		t.Fatalf("no leaf boundary of %d leaves falls inside one of %d buckets", tr.Splits()+1, len(d.slots))
	}
	if hi := tr.a.LoadWord(th.P, left+offHi); hi != sep-1 {
		t.Fatalf("the left leaf's hi is %d, want %d: the separator's predecessor", hi, sep-1)
	}
	slot := d.slot(sep)
	slot.Store(uint64(right))
	for _, c := range []struct {
		key, want uint64
		holds     simmem.Addr
	}{{sep, 1, right}, {sep - 1, 2, left}, {sep - 1, 1, left}, {sep, 1, left}} {
		var v uint64
		if n := attempts(th, func() { v, _ = tr.Get(th, c.key) }); n != c.want || v != 10*c.key {
			t.Fatalf("get(%d) with separator %d: %d transactions, value %d; want %d and %d", c.key, sep, n, v, c.want, 10*c.key)
		}
		if got := simmem.Addr(slot.Load()); got != c.holds {
			t.Fatalf("after get(%d) the bucket holds leaf %d, want %d (left %d, right %d)", c.key, got, c.holds, left, right)
		}
	}
}

// TestLeafDirHopsAreBounded: a bucket whose leaf lies more than dirHops
// leaves left of the key's does not walk the chain to it: the get descends
// once, fills the bucket with the key's leaf, and the next get is served
// from it.
func TestLeafDirHopsAreBounded(t *testing.T) {
	tr, th := newEuno(t, DefaultConfig)
	fill(tr, th, 8*uint64(tr.denseCap))
	leaves := tr.leaves(th)
	if len(leaves) < dirHops+2 {
		t.Fatalf("%d leaves, want at least %d", len(leaves), dirHops+2)
	}
	far := leaves[dirHops+1]
	key := tr.a.LoadWord(th.P, far+offLo)
	slot := tr.dir.Load().slot(key)
	slot.Store(uint64(leaves[0]))
	for i, want := range []uint64{2, 1} {
		var v uint64
		if n := attempts(th, func() { v, _ = tr.Get(th, key) }); n != want || v != 10*key {
			t.Fatalf("get %d of %d, %d leaves right of its bucket's: %d transactions, value %d; want %d and %d", i, key, dirHops+1, n, v, want, 10*key)
		}
		if got := simmem.Addr(slot.Load()); got != far {
			t.Fatalf("after get %d the bucket holds leaf %d, want the key's leaf %d", i, got, far)
		}
	}
}

// TestLeafDirTiedToItsTree: two trees on one device — whose leaves have
// equal seqnos and cover the same keys — never share directory entries: a
// key one tree serves from its directory still descends in the other, and
// every get reads its own tree's value.
func TestLeafDirTiedToItsTree(t *testing.T) {
	h, th := treetest.NewDevice(1 << 22)
	a, b := New(h, th, DefaultConfig), New(h, th, DefaultConfig)
	for k := uint64(1); k <= 8; k++ {
		a.Put(th, k, k)
		b.Put(th, k, 100+k)
	}
	b.dir.Store(b.newDir(b.Splits() + 1))
	for i, c := range []struct {
		tr         *Tree
		base, want uint64
	}{{a, 0, 1}, {b, 100, 2}, {b, 100, 1}, {a, 0, 1}} {
		var v uint64
		var ok bool
		if n := attempts(th, func() { v, ok = c.tr.Get(th, 3) }); n != c.want || !ok || v != c.base+3 {
			t.Fatalf("get %d: %d transactions, %d,%v; want %d and %d", i, n, v, ok, c.want, c.base+3)
		}
	}
}

// mutantCaught is the checker's self-test for a bug seeded in hotTiny's
// tree by seed: the sweep sc, which the healthy tree passes, must reject the
// mutant with a shrunk case whose EUNO_CHECK_REPRO token parses and replays
// the failure twice, and the healthy tree must pass that schedule. (The
// mutants are seeded here and not in checktrees' registry: their switches
// are fields no other package can reach, which is the point.)
func mutantCaught(t *testing.T, name string, seed func(*Tree), sc check.SweepConfig) {
	t.Helper()
	mk := func(h *htm.HTM, boot *htm.Thread) tree.KV {
		tr := New(h, boot, hotTiny())
		seed(tr)
		return tr
	}
	histories, fail := check.Sweep(name, mk, sc)
	if fail == nil {
		t.Fatalf("%s survived %d histories; the checker cannot see it", name, histories)
	}
	t.Logf("caught after %d histories: %s", histories, fail.Workload)
	if base := sc.Base; fail.Workload.Ops >= base.Ops && fail.Workload.Procs >= base.Procs && fail.Workload.Keys >= base.Keys {
		t.Errorf("shrinking reduced nothing: %s (base %s)", fail.Workload, base)
	}
	r, err := check.ParseRepro(check.Repro{Tree: fail.Tree, Workload: fail.Workload, Fault: fail.Fault}.String())
	if err != nil {
		t.Fatalf("the repro token does not parse: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := check.RunWorkload(mk, r.Workload, r.Fault); err == nil {
			t.Fatalf("replay %d of the shrunk case passed; the failure is not deterministic", i)
		}
	}
	healthy := func(h *htm.HTM, boot *htm.Thread) tree.KV { return New(h, boot, hotTiny()) }
	if _, _, err := check.RunWorkload(healthy, r.Workload, r.Fault); err != nil {
		t.Fatalf("the healthy tree fails the mutant's schedule:\n%v", err)
	}
}

// TestDirFenceMutantCaught: a split that leaves its separator inside the
// left leaf's fences lets an operation on that key that finds the left leaf
// in the directory act on it.
func TestDirFenceMutantCaught(t *testing.T) {
	mutantCaught(t, "euno-fence-broken", func(tr *Tree) { tr.fenceSlack = 1 }, check.DefaultSweep(48))
}

// TestGuessMutantCaught: a search that looks for a key only on the line the
// fences predict misses the keys of a leaf whose records bunch. The sweep's
// universe is four times the default's, so that split leaves are dense
// runs of more than one line.
func TestGuessMutantCaught(t *testing.T) {
	sc := check.DefaultSweep(48)
	sc.Base.Keys *= 4
	mutantCaught(t, "euno-guess-broken", func(tr *Tree) { tr.trustGuess = true }, sc)
}

// TestWrongHomeMutantCaught: a put that files its copy one segment past its
// key's home leaves it where no get, delete or later put looks.
func TestWrongHomeMutantCaught(t *testing.T) {
	mutantCaught(t, "euno-home-broken", func(tr *Tree) { tr.wrongHome = 1 }, check.DefaultSweep(48))
}
