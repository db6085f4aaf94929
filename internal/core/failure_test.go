package core

import (
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// newTinyCapacityDevice builds an HTM whose transactional capacity is too
// small for maintenance-sized transactions, forcing tree operations down
// the capacity-abort → fallback path.
func newTinyCapacityDevice(readLines, writeLines int) (*htm.HTM, *htm.Thread) {
	a := simmem.NewArena(1 << 22)
	h := htm.New(a, htm.Config{MaxReadLines: readLines, MaxWriteLines: writeLines})
	return h, h.NewThread(vclock.NewWallProc(0, 0), 1)
}

// TestCorrectUnderCapacityPressure: with a 12-line working-set budget the
// split transactions cannot fit, so splits run on the global-lock path —
// the tree must stay correct throughout.
func TestCorrectUnderCapacityPressure(t *testing.T) {
	h, boot := newTinyCapacityDevice(12, 12)
	tr := New(h, boot, DefaultConfig)
	const n = 1200
	for i := uint64(1); i <= n; i++ {
		tr.Put(boot, i, i*3)
	}
	if boot.Stats.Fallbacks == 0 {
		t.Fatal("capacity pressure never forced a fallback")
	}
	if boot.Stats.Aborts[htm.AbortCapacity] == 0 {
		t.Fatal("no capacity aborts recorded")
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := tr.Get(boot, i); !ok || v != i*3 {
			t.Fatalf("get(%d) = %d,%v after capacity-pressured fill", i, v, ok)
		}
	}
	// Scans exceed the read budget too and must fall back correctly.
	scan500 := func(tr *Tree, th *htm.Thread) {
		t.Helper()
		visited := 0
		last := uint64(0)
		tr.Scan(th, 0, 500, func(k, v uint64) bool {
			if k <= last {
				t.Fatalf("scan order violated: %d after %d", k, last)
			}
			last = k
			visited++
			return true
		})
		if visited != 500 {
			t.Fatalf("scan visited %d", visited)
		}
	}
	fallbacks := boot.Stats.Fallbacks
	scan500(tr, boot)
	if boot.Stats.Fallbacks == fallbacks {
		t.Fatal("a 500-key scan on a 12-line device never fell back")
	}

	// A device with a few leaves' worth of read capacity: the scan region's
	// leaf budget must fit it, not assume the default 512 lines.
	h, boot = newTinyCapacityDevice(48, 48)
	tr = New(h, boot, DefaultConfig)
	for i := uint64(1); i <= n; i++ {
		tr.Put(boot, i, i*3)
	}
	capacity := boot.Stats.Aborts[htm.AbortCapacity]
	scan500(tr, boot)
	if got := boot.Stats.Aborts[htm.AbortCapacity] - capacity; got != 0 {
		t.Fatalf("a 500-key scan on a 48-line device took %d capacity aborts, want 0", got)
	}
}

// TestConcurrentCapacityPressureSim runs the capacity-starved device under
// concurrency: fallback serialization must not lose updates.
func TestConcurrentCapacityPressureSim(t *testing.T) {
	h, _ := newTinyCapacityDevice(10, 10)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, boot, DefaultConfig)
	sim := vclock.NewSim(6, 0)
	const per = 150
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+3)
		base := uint64(p.ID()*per) + 1
		for i := uint64(0); i < per; i++ {
			tr.Put(th, base+i, base+i)
		}
	})
	for k := uint64(1); k <= 6*per; k++ {
		if v, ok := tr.Get(boot, k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestMaintenanceChurn: a tiny leaf geometry forces constant compactions
// and splits; heavy mixed traffic must preserve the model. Every leaf is
// heated every 100 operations, so that deletes tombstone and segments
// overflow: a cold leaf does neither.
func TestMaintenanceChurn(t *testing.T) {
	cfg := Config{StableCap: 4, Segments: 2, SegCap: 1, PartLeaf: true,
		CCMLockBits: true, CCMMarkBits: true, Adaptive: true}
	a := simmem.NewArena(1 << 22)
	h := htm.New(a, htm.DefaultConfig)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, boot, cfg)
	model := map[uint64]uint64{}
	r := vclock.NewRand(31)
	for i := 0; i < 5000; i++ {
		if i%100 == 0 {
			tr.heat(boot)
		}
		k := uint64(r.Intn(400)) + 1
		switch r.Intn(5) {
		case 0, 1, 2:
			v := r.Uint64() >> 1
			tr.Put(boot, k, v)
			model[k] = v
		case 3:
			delete(model, k)
			tr.Delete(boot, k)
		case 4:
			want, in := model[k]
			v, ok := tr.Get(boot, k)
			if ok != in || (ok && v != want) {
				t.Fatalf("op %d: get(%d) = %d,%v want %d,%v", i, k, v, ok, want, in)
			}
		}
	}
	if tr.Splits() == 0 || tr.Compactions() == 0 {
		t.Fatalf("churn did not exercise maintenance: splits=%d compactions=%d",
			tr.Splits(), tr.Compactions())
	}
}

// TestArenaExhaustionSurfacesClearly: running an undersized arena out of
// memory panics with an actionable message rather than corrupting state.
func TestArenaExhaustionSurfacesClearly(t *testing.T) {
	a := simmem.NewArena(64 * simmem.WordsPerLine)
	h := htm.New(a, htm.DefaultConfig)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, boot, DefaultConfig)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on arena exhaustion")
		}
	}()
	for i := uint64(1); i < 100000; i++ {
		tr.Put(boot, i, i)
	}
}

// TestSameKeyPutsNeverDuplicateSim: concurrent puts of the same keys, on
// leaves the CCM lock bits guard (adaptive off: every leaf hot) and on
// leaves they do not (adaptive on), never leave a key twice in a leaf: two
// puts of one key meet in its home segment.
func TestSameKeyPutsNeverDuplicateSim(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		cfg := DefaultConfig
		cfg.Adaptive = adaptive
		a := simmem.NewArena(1 << 22)
		h := htm.New(a, htm.DefaultConfig)
		boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
		tr := New(h, boot, cfg)
		sim := vclock.NewSim(8, 0)
		sim.Run(func(p *vclock.SimProc) {
			th := h.NewThread(p, uint64(p.ID())+7)
			for i := 0; i < 300; i++ {
				// Everyone hammers the same small key set: inserts, deletes,
				// re-inserts of identical keys.
				k := uint64(i%10) + 1
				if i%13 == 5 {
					tr.Delete(th, k)
				} else {
					tr.Put(th, k, uint64(p.ID())<<32|uint64(i))
				}
			}
		})
		// Verify no duplicates via a scan (strictly ascending implies unique).
		last := uint64(0)
		tr.Scan(boot, 0, 100, func(k, v uint64) bool {
			if k <= last && last != 0 {
				t.Fatalf("adaptive %v: duplicate or disorder: %d after %d", adaptive, k, last)
			}
			last = k
			return true
		})
		if err := tr.Validate(boot.P); err != nil {
			t.Fatalf("adaptive %v: %v", adaptive, err)
		}
	}
}

// TestUpperRegionRetriesOnRootSplit: growing the tree concurrently with
// reads must route every get correctly (exercises retry-from-root).
func TestUpperRegionRetriesOnRootSplitSim(t *testing.T) {
	a := simmem.NewArena(1 << 22)
	h := htm.New(a, htm.DefaultConfig)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	tr := New(h, boot, DefaultConfig)
	for i := uint64(2); i <= 400; i += 2 {
		tr.Put(boot, i, i)
	}
	sim := vclock.NewSim(4, 0)
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+17)
		if p.ID() == 0 { // writer driving splits
			for i := uint64(1); i <= 1200; i += 2 {
				tr.Put(th, i, i)
			}
		} else { // readers of stable keys
			for round := 0; round < 400; round++ {
				k := uint64(round%200)*2 + 2
				if v, ok := tr.Get(th, k); !ok || v != k {
					t.Errorf("get(%d) = %d,%v during split storm", k, v, ok)
				}
			}
		}
	})
	if tr.RootRetries() == 0 {
		t.Log("note: no root retries observed (timing-dependent, not an error)")
	}
}
