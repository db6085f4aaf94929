package htm

import (
	"sync"
	"testing"

	"eunomia/internal/simmem"
)

// The host backend runs the same TL2 protocol as the emulator but on real
// goroutines at wall-clock speed, so these tests hammer it with genuine
// parallelism and assert the transactional invariants directly. They are
// the package-level half of satellite (b); the tree-level linearizability
// sweep lives in internal/tree/treetest.

func newHostDevice(words uint64, cfg Config) (*HTM, *simmem.Arena) {
	a := simmem.NewArena(words)
	cfg.Backend = BackendHost
	return New(a, cfg), a
}

func TestBackendString(t *testing.T) {
	if BackendEmulated.String() != "emulated" || BackendHost.String() != "host" {
		t.Fatalf("Backend strings: %q %q", BackendEmulated, BackendHost)
	}
	if got := Backend(7).String(); got != "backend(7)" {
		t.Fatalf("unknown backend string: %q", got)
	}
}

func TestHostDisablesCostModel(t *testing.T) {
	h, a := newHostDevice(1<<14, Config{})
	if !h.Host() {
		t.Fatal("Host() = false on host backend")
	}
	if !a.CostModelDisabled() {
		t.Fatal("host backend left the arena cost model enabled")
	}
	// Host thread IDs are unbounded (no per-proc cache table).
	th := h.NewHostThread(4096, 1)
	x := a.AllocAligned(th.P, 8, simmem.TagKeys)
	if ok, reason := th.Run(func(tx *Tx) { tx.Store(x, 42) }); !ok {
		t.Fatalf("host commit failed: %v", reason)
	}
	if got := a.WordRaw(x); got != 42 {
		t.Fatalf("word = %d, want 42", got)
	}
}

// hostCounterRun drives workers goroutines through incs transactional
// increments of one shared word each and checks the total — lost updates
// mean broken write-write conflict detection.
func hostCounterRun(t *testing.T, lemmingWait bool) {
	t.Helper()
	h, a := newHostDevice(1<<16, Config{LemmingWait: lemmingWait})
	boot := h.NewHostThread(0, 1)
	ctr := a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagKeys)

	workers, incs := 8, 300
	if testing.Short() {
		incs = 100
	}
	var wg sync.WaitGroup
	threads := make([]*Thread, workers)
	for w := 0; w < workers; w++ {
		th := h.NewHostThread(w+1, uint64(w)*7919+1)
		threads[w] = th
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				th.Execute(DefaultPolicy, func(tx *Tx) {
					tx.Store(ctr, tx.Load(ctr)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got, want := a.WordRaw(ctr), uint64(workers*incs); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
	for _, th := range threads {
		th.FlushStats()
	}
	ds := h.DeviceStats()
	if ds.Commits+ds.Fallbacks < uint64(workers*incs) {
		t.Fatalf("device stats undercount after FlushStats: commits=%d fallbacks=%d want >= %d",
			ds.Commits, ds.Fallbacks, workers*incs)
	}
}

func TestHostCounterDefaultPolicy(t *testing.T) {
	hostCounterRun(t, false)
}

func TestHostCounterResilient(t *testing.T) {
	hostCounterRun(t, true)
}

// TestHostOpacity keeps an invariant (a + b == 1000) across transfer
// transactions while readers assert it transactionally from other
// goroutines. A reader observing a torn sum means the host backend lost
// TL2 opacity under real concurrency.
func TestHostOpacity(t *testing.T) {
	h, a := newHostDevice(1<<16, Config{})
	boot := h.NewHostThread(0, 1)
	// Two words on distinct lines so a transfer really spans two lines.
	wa := a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagKeys)
	wb := a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagKeys)
	const total = 1000
	a.StoreWordDirect(boot.P, wa, total)

	iters := 400
	if testing.Short() {
		iters = 120
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := h.NewHostThread(w+1, uint64(w)*2654435761+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				th.Execute(DefaultPolicy, func(tx *Tx) {
					av, bv := tx.Load(wa), tx.Load(wb)
					if av > 0 {
						tx.Store(wa, av-1)
						tx.Store(wb, bv+1)
					} else {
						tx.Store(wa, av+bv)
						tx.Store(wb, 0)
					}
				})
			}
		}()
	}
	for w := 0; w < 2; w++ {
		th := h.NewHostThread(10+w, uint64(w)*97+13)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var av, bv uint64
				th.Execute(DefaultPolicy, func(tx *Tx) {
					av, bv = tx.Load(wa), tx.Load(wb)
				})
				if av+bv != total {
					t.Errorf("opacity violated: a=%d b=%d sum=%d", av, bv, av+bv)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := a.WordRaw(wa) + a.WordRaw(wb); got != total {
		t.Fatalf("final sum = %d, want %d", got, total)
	}
}

// TestHostFallbackMutualExclusion mixes transactional increments with
// direct-mode fallback increments from separate goroutines, the
// transactional side first retrying into the held lock (the default) and
// then waiting it out (the lemming wait). The fallback's version bumps must
// abort in-flight transactions, and the lock must serialize fallback bodies.
func TestHostFallbackMutualExclusion(t *testing.T) {
	for _, c := range []struct {
		name        string
		lemmingWait bool
	}{{"spin", false}, {"lemming", true}} {
		t.Run(c.name, func(t *testing.T) {
			h, a := newHostDevice(1<<16, Config{LemmingWait: c.lemmingWait})
			boot := h.NewHostThread(0, 1)
			ctr := a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagKeys)

			workers, incs := 6, 200
			if testing.Short() {
				incs = 60
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				th := h.NewHostThread(w+1, uint64(w)*31+7)
				useFallback := w%2 == 0
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < incs; i++ {
						if useFallback {
							th.RunFallback(func(tx *Tx) {
								tx.Store(ctr, tx.Load(ctr)+1)
							})
						} else {
							th.Execute(DefaultPolicy, func(tx *Tx) {
								tx.Store(ctr, tx.Load(ctr)+1)
							})
						}
					}
				}()
			}
			wg.Wait()
			if got, want := a.WordRaw(ctr), uint64(workers*incs); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
		})
	}
}
