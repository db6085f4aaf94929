package core

import (
	"sync"
	"testing"
	"time"

	"eunomia/internal/htm"
	"eunomia/internal/obs"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/tree/treetest"
	"eunomia/internal/vclock"
)

func factoryWith(cfg Config) treetest.Factory {
	return func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return New(h, boot, cfg)
	}
}

// TestKitFullEuno runs the complete correctness kit on the default (all
// guidelines enabled) configuration.
func TestKitFullEuno(t *testing.T) {
	treetest.RunAll(t, factoryWith(DefaultConfig))
}

// TestKitAblations runs the kit on every Figure 13 configuration, since
// each flag combination takes different code paths.
func TestKitAblations(t *testing.T) {
	for _, ab := range AblationConfigs() {
		ab := ab
		t.Run(ab.Name, func(t *testing.T) {
			treetest.RunAll(t, factoryWith(ab.Cfg))
		})
	}
}

// TestKitOddGeometries exercises non-default segment shapes.
func TestKitOddGeometries(t *testing.T) {
	cfgs := map[string]Config{
		"hot-leaf":    hotTiny(),
		"small-leaf":  {StableCap: 4, Segments: 2, SegCap: 1, PartLeaf: true, CCMLockBits: true, CCMMarkBits: true, Adaptive: true},
		"wide-leaf":   {StableCap: 32, Segments: 4, SegCap: 7, PartLeaf: true, CCMLockBits: true, CCMMarkBits: true},
		"no-adaptive": {StableCap: 16, Segments: 4, SegCap: 3, PartLeaf: true, CCMLockBits: true, CCMMarkBits: true},
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			treetest.RunAll(t, factoryWith(cfg))
		})
	}
}

func newEuno(t *testing.T, cfg Config) (*Tree, *htm.Thread) {
	t.Helper()
	h, boot := treetest.NewDevice(1 << 24)
	return New(h, boot, cfg), boot
}

// heat makes every leaf the tree has hot — a score no test's clean
// operations decay away — and partitioned, the way the first operation to
// abort on each would. Two passes: a promotion that splits leaves its new
// right half partitioned but cold.
func (t *Tree) heat(th *htm.Thread) {
	for pass := 0; pass < 2; pass++ {
		for _, l := range t.leaves(th) {
			t.heatLeaf(th, l)
		}
	}
}

func (t *Tree) heatLeaf(th *htm.Thread, l simmem.Addr) {
	t.a.StoreWordDirect(th.P, t.ccmAddr(l)+ccmConflict, 1<<62)
	t.noteConflicts(th, l, t.a.LoadWord(th.P, l+offSeqno), 0, 1)
}

// leafState reads the state word of the leaf that covers key.
func (t *Tree) leafState(th *htm.Thread, key uint64) (leaf simmem.Addr, segs int) {
	leaf, _, segs = t.upper(th, key)
	return leaf, segs
}

func TestTwoRegionGetUsesTwoTransactions(t *testing.T) {
	cfg := DefaultConfig
	cfg.Adaptive = false // CCM always on, but gets should still be 2 regions
	tr, boot := newEuno(t, cfg)
	for i := uint64(1); i <= 100; i++ {
		tr.Put(boot, i, i)
	}
	// An empty directory, so the get descends: the directory's hit is
	// TestLeafDirSkipsUpperRegion.
	tr.dir.Store(tr.newDir(tr.Splits()+1, false))
	th := tr.h.NewThread(vclock.NewWallProc(1, 0), 2)
	tr.Get(th, 50)
	if got := th.Stats.Attempts; got != 2 {
		t.Fatalf("get used %d attempts, want 2 (upper + lower)", got)
	}
}

func TestMarkSlotsRejectAbsentKeys(t *testing.T) {
	cfg := DefaultConfig
	cfg.Adaptive = false
	tr, boot := newEuno(t, cfg)
	for i := uint64(1); i <= 64; i++ {
		tr.Put(boot, i*1000, i)
	}
	before := tr.MarkRejects()
	misses := 0
	for i := uint64(1); i <= 64; i++ {
		if _, ok := tr.Get(boot, i*1000+1); ok {
			t.Fatalf("found absent key %d", i*1000+1)
		}
		misses++
	}
	rejects := tr.MarkRejects() - before
	if rejects == 0 {
		t.Fatal("mark slots never rejected an absent-key get")
	}
	t.Logf("mark fast path rejected %d of %d absent gets", rejects, misses)
}

func TestMarkNeverFalseNegative(t *testing.T) {
	// Every present key must be found even after deletes of colliding keys
	// and splits (marks may over-count, never under-count).
	cfg := DefaultConfig
	cfg.Adaptive = false
	tr, boot := newEuno(t, cfg)
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		tr.Put(boot, i, i*7)
	}
	for i := uint64(1); i <= n; i += 3 {
		tr.Delete(boot, i)
	}
	for i := uint64(1); i <= n; i++ {
		v, ok := tr.Get(boot, i)
		wantOK := i%3 != 1
		if ok != wantOK || (ok && v != i*7) {
			t.Fatalf("get(%d) = %d,%v want present=%v", i, v, ok, wantOK)
		}
	}
}

func TestDeletedKeysStayDeletedAcrossCompaction(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	// Fill one leaf's key neighborhood so compactions and a split happen.
	for i := uint64(1); i <= 60; i++ {
		tr.Put(boot, i, i)
	}
	for i := uint64(1); i <= 60; i += 2 {
		if !tr.Delete(boot, i) {
			t.Fatalf("delete(%d) failed", i)
		}
	}
	// Force more maintenance traffic.
	for i := uint64(100); i <= 160; i++ {
		tr.Put(boot, i, i)
	}
	for i := uint64(1); i <= 60; i++ {
		_, ok := tr.Get(boot, i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("get(%d) present=%v, want %v", i, ok, want)
		}
	}
}

func TestSplitsBumpSeqnoAndForceRootRetries(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	for i := uint64(1); i <= 1000; i++ {
		tr.Put(boot, i, i)
	}
	if tr.Splits() == 0 {
		t.Fatal("no splits after 1000 sequential inserts")
	}
	if tr.Depth(boot) < 2 {
		t.Fatalf("depth = %d", tr.Depth(boot))
	}
}

// TestSplitsCountedOnce: Splits counts the splits that committed — a split
// region that aborts and retries is one split — so under contention it
// still reads one less than the leaves on the chain; the leaf directory is
// sized by it.
func TestSplitsCountedOnce(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		h, boot := treetest.NewDevice(1 << 24)
		tr := New(h, boot, DefaultConfig)
		vclock.NewSim(16, 0).Run(func(p *vclock.SimProc) {
			th := h.NewThread(p, seed*100+uint64(p.ID()))
			r := vclock.NewRand(seed*1000 + uint64(p.ID()))
			for i := 0; i < 2000; i++ {
				tr.Put(th, r.Uint64()%4000, uint64(i)+1)
			}
		})
		st := h.DeviceStats()
		aborted := st.TotalAborts()
		if leaves := uint64(len(tr.leaves(boot))); tr.Splits()+1 != leaves || aborted == 0 {
			t.Fatalf("seed %d: Splits()+1 = %d with %d leaves on the chain after %d aborts; want them equal under contention",
				seed, tr.Splits()+1, leaves, aborted)
		}
		validateOrFail(t, tr, boot)
	}
}

func TestShadowUpdateWinsOverStable(t *testing.T) {
	// Drive a key into the stable region via compaction, then update it;
	// the segment shadow must win on reads and survive the next compaction.
	// Shadows are a partitioned leaf's: the leaf is hot from the start.
	tr, boot := newEuno(t, DefaultConfig)
	tr.heat(boot)
	for i := uint64(1); i <= 20; i++ { // overflow segments -> compaction
		tr.Put(boot, i, 100+i)
	}
	if tr.Compactions() == 0 {
		t.Fatal("expected at least one compaction")
	}
	tr.Put(boot, 5, 999) // shadow update of a stable-resident key
	leaf, segs := tr.leafState(boot, 5)
	var stable uint64
	boot.Execute(htm.DefaultPolicy, func(tx *htm.Tx) {
		if i, ok := tr.stableSearch(tx, leaf, 5); ok {
			stable = tx.Load(tr.stableV(leaf, i))
		}
	})
	if segs == 0 || stable != 105 {
		t.Fatalf("key 5's leaf has %d segments in use and stable value %d; want a partitioned leaf still holding 105 under the shadow", segs, stable)
	}
	if v, ok := tr.Get(boot, 5); !ok || v != 999 {
		t.Fatalf("get(5) = %d,%v want 999", v, ok)
	}
	for i := uint64(30); i <= 60; i++ { // force further compactions/splits
		tr.Put(boot, i, i)
	}
	if v, ok := tr.Get(boot, 5); !ok || v != 999 {
		t.Fatalf("get(5) after maintenance = %d,%v want 999", v, ok)
	}
}

func TestAdaptiveDetectorHeatsAndCools(t *testing.T) {
	cfg := DefaultConfig
	cfg.HotThreshold = 4
	tr, boot := newEuno(t, cfg)
	tr.Put(boot, 1, 1)
	leaf, _ := tr.leafState(boot, 1)
	ccm := tr.ccmAddr(leaf)
	if tr.leafHot(boot.P, ccm) {
		t.Fatal("fresh leaf reported hot")
	}
	tr.a.AddWordDirect(boot.P, ccm+ccmConflict, 10)
	if !tr.leafHot(boot.P, ccm) {
		t.Fatal("leaf with conflict score 10 not hot")
	}
	// Conflict-free operations decay the score back below threshold.
	for i := 0; i < 20000 && tr.leafHot(boot.P, ccm); i++ {
		tr.Get(boot, 1)
	}
	if tr.leafHot(boot.P, ccm) {
		t.Fatal("leaf never cooled down")
	}
}

func TestTombstoneValueRejected(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for tombstone value")
		}
	}()
	tr.Put(boot, 1, tree.Tombstone)
}

func TestConfigValidation(t *testing.T) {
	h, boot := treetest.NewDevice(1 << 18)
	bad := []Config{
		{StableCap: 2},
		{StableCap: 64},
		{StableCap: 16, PartLeaf: true, Segments: 1, SegCap: 3},
		{StableCap: 16, PartLeaf: true, Segments: 4, SegCap: 9},
		{StableCap: 16, PartLeaf: true, Segments: 8, SegCap: 7}, // cannot split
		{StableCap: 4, PartLeaf: true, Segments: 2, SegCap: 2},  // cannot split
	}
	for _, cfg := range bad {
		func() {
			defer func() { recover() }()
			New(h, boot, cfg)
			t.Fatalf("config %+v accepted", cfg)
		}()
	}
}

func TestCCMBitOps(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	tr.Put(boot, 1, 1)
	leaf, _ := tr.leafState(boot, 1)
	ccm := tr.ccmAddr(leaf)
	p := boot.P

	// Lock bits: lock two slots independently, unlock, relock.
	tr.lockSlot(p, ccm, 3)
	tr.lockSlot(p, ccm, 7)
	bits := tr.a.LoadWord(p, ccm+ccmLockBits)
	if bits&(1<<3) == 0 || bits&(1<<7) == 0 {
		t.Fatalf("lock bits = %b", bits)
	}
	tr.unlockSlot(p, ccm, 3)
	if tr.a.LoadWord(p, ccm+ccmLockBits)&(1<<3) != 0 {
		t.Fatal("slot 3 still locked")
	}
	tr.unlockSlot(p, ccm, 7)

	// Counting marks: saturate and verify stickiness.
	slot := uint(5)
	base := tr.markCount(p, ccm, slot)
	for i := 0; i < 30; i++ {
		tr.markAdd(p, ccm, slot, +1)
	}
	if got := tr.markCount(p, ccm, slot); got != markSaturation {
		t.Fatalf("saturated mark = %d, want %d", got, markSaturation)
	}
	tr.markAdd(p, ccm, slot, -1)
	if got := tr.markCount(p, ccm, slot); got != markSaturation {
		t.Fatal("saturated mark decremented")
	}
	_ = base
}

// parkObserver parks the first transaction thread proc begins on node until
// release is closed, after closing parked.
type parkObserver struct {
	proc            int32
	node            uint64
	once            sync.Once
	parked, release chan struct{}
}

func (o *parkObserver) Event(e obs.Event) {
	if e.Kind == obs.EvTxBegin && e.Proc == o.proc && e.Node == o.node {
		o.once.Do(func() { close(o.parked); <-o.release })
	}
}

// TestPutPassesInFlightGet: the lock bits serialize writers, not readers. A
// get parked at the start of its lower region on a hot leaf holds no bit,
// so a put of the same key from another goroutine goes through; the get,
// released, then reads the put's value.
func TestPutPassesInFlightGet(t *testing.T) {
	h, _ := treetest.NewDevice(1 << 20)
	boot := h.NewHostThread(0, 1)
	tr := New(h, boot, DefaultConfig)
	const key = 7
	tr.Put(boot, key, 1)
	tr.heat(boot)
	leaf, segs := tr.leafState(boot, key)
	if segs != tr.cfg.Segments || !tr.leafHot(boot.P, tr.ccmAddr(leaf)) {
		t.Fatalf("key %d's leaf has %d segments in use; want a hot partitioned leaf", key, segs)
	}
	o := &parkObserver{proc: 1, node: uint64(leaf), parked: make(chan struct{}), release: make(chan struct{})}
	h.SetObserver(o)
	got := make(chan uint64, 1)
	go func() {
		v, _ := tr.Get(h.NewHostThread(1, 2), key)
		got <- v
	}()
	<-o.parked
	put := make(chan struct{})
	go func() {
		tr.Put(h.NewHostThread(2, 3), key, 2)
		close(put)
	}()
	select {
	case <-put:
		close(o.release)
	case <-time.After(2 * time.Second):
		close(o.release)
		<-put
		t.Fatal("a put waited out a get parked in its lower region: the get holds its slot's lock bit")
	}
	if v := <-got; v != 2 {
		t.Fatalf("get released after the put returned %d, want the put's 2", v)
	}
}

// TestGetWaitsOutSlotWriter: a get on a hot leaf whose slot bit a writer
// holds does not run until the bit is clear, and takes no bit itself. With
// Adaptive off every partitioned leaf is hot and nothing on a get's path
// stores to the CCM line but the lock bits, so the line's version is the
// witness; the test clears the bit without a versioned store.
func TestGetWaitsOutSlotWriter(t *testing.T) {
	cfg := DefaultConfig
	cfg.Adaptive = false
	h, _ := treetest.NewDevice(1 << 20)
	boot := h.NewHostThread(0, 1)
	tr := New(h, boot, cfg)
	const key = 7
	tr.Put(boot, key, 1)
	leaf, _ := tr.leafState(boot, key)
	ccm, a := tr.ccmAddr(leaf), h.Arena()
	tr.lockSlot(boot.P, ccm, tr.slotOf(key))
	line := (ccm + ccmLockBits).Line()
	state := a.LineState(line)
	got := make(chan uint64, 1)
	go func() {
		v, _ := tr.Get(h.NewHostThread(1, 2), key)
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("get returned %d while a writer held its slot's lock bit", v)
	case <-time.After(100 * time.Millisecond):
	}
	a.SetWordRaw(ccm+ccmLockBits, 0)
	if v := <-got; v != 1 {
		t.Fatalf("get = %d, want 1", v)
	}
	if s := a.LineState(line); s != state {
		t.Fatalf("the get wrote the CCM line: state %#x -> %#x", state, s)
	}
}

func TestMarkAddClampAtZero(t *testing.T) {
	tr, boot := newEuno(t, DefaultConfig)
	tr.Put(boot, 1, 1)
	leaf, _ := tr.leafState(boot, 1)
	ccm := tr.ccmAddr(leaf)
	slot := uint(9)
	if got := tr.markAdd(boot.P, ccm, slot, -1); got != 0 {
		t.Fatalf("decrement at zero = %d", got)
	}
}

func TestSlotHashInRangeAndDeterministic(t *testing.T) {
	tr, _ := newEuno(t, DefaultConfig)
	for k := uint64(0); k < 10000; k++ {
		s := tr.slotOf(k)
		if s >= tr.nslots {
			t.Fatalf("slot %d out of range %d", s, tr.nslots)
		}
		if s != tr.slotOf(k) {
			t.Fatal("slot hash not deterministic")
		}
	}
}

func TestReservedBytesTransient(t *testing.T) {
	// Maintenance stages through TagReserved allocations that must be
	// freed afterwards, and a scan stages nothing: steady-state reserved
	// bytes stay zero.
	tr, boot := newEuno(t, DefaultConfig)
	for i := uint64(1); i <= 3000; i++ {
		tr.Put(boot, i, i)
	}
	tr.Scan(boot, 0, 500, func(k, v uint64) bool { return true })
	if got := tr.a.BytesByTag(simmem.TagReserved); got != 0 {
		t.Fatalf("reserved bytes leaked: %d", got)
	}
	if tr.a.PeakBytes() == 0 {
		t.Fatal("peak accounting broken")
	}
}

func TestScanAcrossManySplitsUnderChurnSim(t *testing.T) {
	// Scans interleaved with inserts in deterministic virtual time: each
	// scan must be sorted and duplicate-free even across leaf hops.
	h, _ := treetest.NewDevice(1 << 24)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, boot, DefaultConfig)
	for i := uint64(2); i <= 600; i += 2 {
		tr.Put(boot, i, i)
	}
	sim := vclock.NewSim(4, 0)
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+5)
		if p.ID() == 0 {
			for round := 0; round < 30; round++ {
				last := uint64(0)
				tr.Scan(th, 0, 200, func(k, v uint64) bool {
					if k <= last && last != 0 {
						t.Errorf("scan not strictly ascending: %d after %d", k, last)
					}
					last = k
					return true
				})
			}
		} else {
			r := vclock.NewRand(uint64(p.ID()))
			for i := 0; i < 600; i++ {
				tr.Put(th, uint64(r.Intn(600))*2+1, 7)
			}
		}
	})
}
