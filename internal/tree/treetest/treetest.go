// Package treetest is a reusable correctness kit applied to every tree
// implementation in the repository: model-based sequential tests, property
// tests over random operation sequences, and concurrent stress tests in
// both wall-clock and deterministic virtual-time modes.
package treetest

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
)

// Factory builds a fresh tree on a fresh HTM device for one test.
type Factory func(h *htm.HTM, boot *htm.Thread) tree.KV

// NewDevice creates an arena+HTM pair and a boot thread for tests.
func NewDevice(words uint64) (*htm.HTM, *htm.Thread) {
	a := simmem.NewArena(words)
	h := htm.New(a, htm.DefaultConfig)
	return h, h.NewThread(vclock.NewWallProc(0, 0), 1)
}

// RunAll executes the full kit against a factory.
func RunAll(t *testing.T, mk Factory) {
	t.Run("EmptyTree", func(t *testing.T) { runEmpty(t, mk) })
	t.Run("PutGetUpdate", func(t *testing.T) { runPutGetUpdate(t, mk) })
	t.Run("SequentialFill", func(t *testing.T) { runSequentialFill(t, mk) })
	t.Run("ReverseFill", func(t *testing.T) { runReverseFill(t, mk) })
	t.Run("RandomModel", func(t *testing.T) { runRandomModel(t, mk) })
	t.Run("DeleteModel", func(t *testing.T) { runDeleteModel(t, mk) })
	t.Run("ScanSemantics", func(t *testing.T) { runScan(t, mk) })
	t.Run("PropertySequences", func(t *testing.T) { runProperty(t, mk) })
	t.Run("ConcurrentDisjointWall", func(t *testing.T) { runConcurrentDisjoint(t, mk) })
	t.Run("ConcurrentSharedWall", func(t *testing.T) { runConcurrentShared(t, mk) })
	t.Run("ConcurrentSim", func(t *testing.T) { runConcurrentSim(t, mk) })
	t.Run("ConcurrentMixedOpsSim", func(t *testing.T) { runConcurrentMixedSim(t, mk) })
	t.Run("LinearizabilitySweep", func(t *testing.T) { runLinearizabilitySweep(t, mk) })
	t.Run("LinearizabilityWall", func(t *testing.T) { runLinearizabilityWall(t, mk) })
	t.Run("LinearizabilityHost", func(t *testing.T) { runLinearizabilityHost(t, mk) })
	t.Run("ConcurrentSharedHost", func(t *testing.T) { runConcurrentSharedHost(t, mk) })
	t.Run("FaultInjection", func(t *testing.T) { runFaultInjection(t, mk) })
}

func runEmpty(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 18)
	kv := mk(h, boot)
	if _, ok := kv.Get(boot, 42); ok {
		t.Fatal("empty tree returned a value")
	}
	if kv.Delete(boot, 42) {
		t.Fatal("empty tree deleted a key")
	}
	if n := kv.Scan(boot, 0, 10, func(k, v uint64) bool { return true }); n != 0 {
		t.Fatalf("empty scan visited %d", n)
	}
}

func runPutGetUpdate(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 18)
	kv := mk(h, boot)
	kv.Put(boot, 10, 100)
	kv.Put(boot, 20, 200)
	if v, ok := kv.Get(boot, 10); !ok || v != 100 {
		t.Fatalf("get(10) = %d,%v", v, ok)
	}
	kv.Put(boot, 10, 111) // update in place
	if v, ok := kv.Get(boot, 10); !ok || v != 111 {
		t.Fatalf("after update get(10) = %d,%v", v, ok)
	}
	if _, ok := kv.Get(boot, 15); ok {
		t.Fatal("absent key found")
	}
}

func runSequentialFill(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 22)
	kv := mk(h, boot)
	const n = 3000 // forces multiple levels of splits at fanout 16
	for i := uint64(1); i <= n; i++ {
		kv.Put(boot, i, i*3)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := kv.Get(boot, i); !ok || v != i*3 {
			t.Fatalf("get(%d) = %d,%v after sequential fill", i, v, ok)
		}
	}
}

func runReverseFill(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 22)
	kv := mk(h, boot)
	const n = 2000
	for i := uint64(n); i >= 1; i-- {
		kv.Put(boot, i, i+7)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := kv.Get(boot, i); !ok || v != i+7 {
			t.Fatalf("get(%d) = %d,%v after reverse fill", i, v, ok)
		}
	}
}

func runRandomModel(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 22)
	kv := mk(h, boot)
	model := map[uint64]uint64{}
	r := vclock.NewRand(99)
	for i := 0; i < 6000; i++ {
		k := uint64(r.Intn(1500)) + 1
		v := r.Uint64() >> 1
		kv.Put(boot, k, v)
		model[k] = v
	}
	for k, want := range model {
		if v, ok := kv.Get(boot, k); !ok || v != want {
			t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, want)
		}
	}
}

func runDeleteModel(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 22)
	kv := mk(h, boot)
	model := map[uint64]uint64{}
	r := vclock.NewRand(7)
	for i := 0; i < 4000; i++ {
		k := uint64(r.Intn(600)) + 1
		switch r.Intn(3) {
		case 0, 1:
			v := r.Uint64() >> 1
			kv.Put(boot, k, v)
			model[k] = v
		case 2:
			_, inModel := model[k]
			if got := kv.Delete(boot, k); got != inModel {
				t.Fatalf("delete(%d) = %v, model says %v", k, got, inModel)
			}
			delete(model, k)
		}
	}
	for k := uint64(1); k <= 600; k++ {
		want, inModel := model[k]
		v, ok := kv.Get(boot, k)
		if ok != inModel || (ok && v != want) {
			t.Fatalf("get(%d) = %d,%v; model %d,%v", k, v, ok, want, inModel)
		}
	}
}

func runScan(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 22)
	kv := mk(h, boot)
	// Insert even keys 2..400.
	for k := uint64(2); k <= 400; k += 2 {
		kv.Put(boot, k, k*10)
	}
	var got []uint64
	n := kv.Scan(boot, 100, 20, func(k, v uint64) bool {
		if v != k*10 {
			t.Fatalf("scan value mismatch: %d -> %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if n != 20 || len(got) != 20 {
		t.Fatalf("scan visited %d, want 20", n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("scan out of order: %v", got)
	}
	if got[0] != 100 || got[19] != 138 {
		t.Fatalf("scan range wrong: first=%d last=%d", got[0], got[19])
	}
	// From a key between stored keys.
	got = got[:0]
	kv.Scan(boot, 101, 3, func(k, v uint64) bool { got = append(got, k); return true })
	if len(got) != 3 || got[0] != 102 {
		t.Fatalf("scan from gap: %v", got)
	}
	// Early termination by fn.
	calls := 0
	n = kv.Scan(boot, 2, 100, func(k, v uint64) bool { calls++; return calls < 5 })
	if calls != 5 {
		t.Fatalf("early-stop scan made %d calls", calls)
	}
	// Scan past the end.
	if n := kv.Scan(boot, 401, 10, func(k, v uint64) bool { return true }); n != 0 {
		t.Fatalf("scan past end visited %d", n)
	}
}

// runProperty drives random op sequences via testing/quick and compares
// against a map+sorted-model, including scans.
func runProperty(t *testing.T, mk Factory) {
	f := func(seed uint64) bool {
		h, boot := NewDevice(1 << 22)
		kv := mk(h, boot)
		model := map[uint64]uint64{}
		r := vclock.NewRand(seed)
		for i := 0; i < 800; i++ {
			k := uint64(r.Intn(200)) + 1
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				v := r.Uint64() >> 1
				kv.Put(boot, k, v)
				model[k] = v
			case 4, 5:
				_, inModel := model[k]
				if kv.Delete(boot, k) != inModel {
					return false
				}
				delete(model, k)
			case 6, 7, 8:
				want, inModel := model[k]
				v, ok := kv.Get(boot, k)
				if ok != inModel || (ok && v != want) {
					return false
				}
			case 9:
				// Scan 5 from k and compare with the model's sorted view.
				var keys []uint64
				for mk := range model {
					if mk >= k {
						keys = append(keys, mk)
					}
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				if len(keys) > 5 {
					keys = keys[:5]
				}
				var got []uint64
				kv.Scan(boot, k, 5, func(sk, sv uint64) bool {
					got = append(got, sk)
					return true
				})
				if len(got) != len(keys) {
					return false
				}
				for j := range got {
					if got[j] != keys[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func runConcurrentDisjoint(t *testing.T, mk Factory) {
	// Workers insert disjoint key ranges concurrently; every key must be
	// present with its exact value afterwards (no lost splits/updates).
	h, boot := NewDevice(1 << 24)
	kv := mk(h, boot)
	const workers = 8
	per := uint64(400)
	if testing.Short() {
		per = 100 // keep -race -short runs inside CI time budgets
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := h.NewThread(vclock.NewWallProc(w+1, 64), uint64(w)+2)
			base := uint64(w)*per + 1
			for i := uint64(0); i < per; i++ {
				kv.Put(th, base+i, (base+i)*2)
			}
		}(w)
	}
	wg.Wait()
	for k := uint64(1); k <= workers*per; k++ {
		if v, ok := kv.Get(boot, k); !ok || v != k*2 {
			t.Fatalf("get(%d) = %d,%v after concurrent fill", k, v, ok)
		}
	}
}

func runConcurrentShared(t *testing.T, mk Factory) {
	// Workers hammer the same small hot set; a concurrent reader must only
	// ever observe values some worker actually wrote.
	h, boot := NewDevice(1 << 24)
	kv := mk(h, boot)
	const workers, hot = 6, 16
	ops := 500
	if testing.Short() {
		ops = 125 // keep -race -short runs inside CI time budgets
	}
	for k := uint64(1); k <= hot; k++ {
		kv.Put(boot, k, 1<<40)
	}
	var wg sync.WaitGroup
	bad := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := h.NewThread(vclock.NewWallProc(w+1, 32), uint64(w)+3)
			r := vclock.NewRand(uint64(w) + 50)
			for i := 0; i < ops; i++ {
				k := uint64(r.Intn(hot)) + 1
				if r.Intn(2) == 0 {
					kv.Put(th, k, 1<<40|uint64(w)<<20|uint64(i))
				} else {
					v, ok := kv.Get(th, k)
					if !ok || v&(1<<40) == 0 {
						bad[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, b := range bad {
		if b != 0 {
			t.Fatalf("worker %d observed %d invalid reads", w, b)
		}
	}
}

func runConcurrentSharedHost(t *testing.T, mk Factory) {
	// The shared-hot-set stress on host threads: same invariant as
	// runConcurrentShared, but outside the cost model the goroutines run
	// the protocol at native speed, so far more real interleavings per
	// second reach the conflict paths.
	h, boot := NewDevice(1 << 24)
	kv := mk(h, boot)
	const workers, hot = 6, 16
	ops := 1500
	if testing.Short() {
		ops = 300 // keep -race -short runs inside CI time budgets
	}
	for k := uint64(1); k <= hot; k++ {
		kv.Put(boot, k, 1<<40)
	}
	var wg sync.WaitGroup
	bad := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := h.NewHostThread(w+1, uint64(w)+3)
			r := vclock.NewRand(uint64(w) + 50)
			for i := 0; i < ops; i++ {
				k := uint64(r.Intn(hot)) + 1
				if r.Intn(2) == 0 {
					kv.Put(th, k, 1<<40|uint64(w)<<20|uint64(i))
				} else {
					v, ok := kv.Get(th, k)
					if !ok || v&(1<<40) == 0 {
						bad[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, b := range bad {
		if b != 0 {
			t.Fatalf("worker %d observed %d invalid reads", w, b)
		}
	}
}

func runConcurrentSim(t *testing.T, mk Factory) {
	// Deterministic virtual-time stress: interleaving at single-access
	// granularity, then full verification.
	h, _ := NewDevice(1 << 24)
	var kv tree.KV
	sim := vclock.NewSim(8, 0)
	const per = 250
	procs := sim.Procs()
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	kv = mk(h, boot)
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+11)
		base := uint64(p.ID()*per) + 1
		for i := uint64(0); i < per; i++ {
			kv.Put(th, base+i, (base+i)*5)
		}
		// Interleave some reads of our own keys.
		for i := uint64(0); i < per; i += 7 {
			if v, ok := kv.Get(th, base+i); !ok || v != (base+i)*5 {
				t.Errorf("proc %d: get(%d) = %d,%v", p.ID(), base+i, v, ok)
			}
		}
	})
	for k := uint64(1); k <= uint64(len(procs))*per; k++ {
		if v, ok := kv.Get(boot, k); !ok || v != k*5 {
			t.Fatalf("get(%d) = %d,%v after sim run", k, v, ok)
		}
	}
}

func runConcurrentMixedSim(t *testing.T, mk Factory) {
	// All op kinds concurrently on a shared key space under virtual time.
	// Verified invariant: values are always tagged with their key, so any
	// read must return a matching tag (no cross-key smearing), and scans
	// must be sorted and consistent.
	h, _ := NewDevice(1 << 24)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	kv := mk(h, boot)
	const keys = 300
	for k := uint64(1); k <= keys; k += 2 {
		kv.Put(boot, k, k<<20|1)
	}
	sim := vclock.NewSim(6, 0)
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+31)
		r := vclock.NewRand(uint64(p.ID()) + 77)
		for i := 0; i < 400; i++ {
			k := uint64(r.Intn(keys)) + 1
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				kv.Put(th, k, k<<20|uint64(i)<<4|uint64(p.ID()))
			case 4:
				kv.Delete(th, k)
			case 5:
				var last uint64
				kv.Scan(th, k, 8, func(sk, sv uint64) bool {
					if sk < last || sv>>20 != sk {
						t.Errorf("scan anomaly at key %d: sk=%d sv=%x last=%d", k, sk, sv, last)
					}
					last = sk
					return true
				})
			default:
				if v, ok := kv.Get(th, k); ok && v>>20 != k {
					t.Errorf("get(%d) returned value tagged %d", k, v>>20)
				}
			}
		}
	})
}
