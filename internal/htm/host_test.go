package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"eunomia/internal/simmem"
)

// Host threads run the same TL2 protocol as the virtual-time procs but on
// real goroutines at wall-clock speed, so these tests hammer it with genuine
// parallelism and assert the transactional invariants directly. The
// tree-level linearizability sweep lives in internal/tree/treetest.

func newDeviceWith(words uint64, cfg Config) (*HTM, *simmem.Arena) {
	a := simmem.NewArena(words)
	return New(a, cfg), a
}

// hostCounterRun drives workers goroutines through incs transactional
// increments of one shared word each and checks the total — lost updates
// mean broken write-write conflict detection.
func hostCounterRun(t *testing.T, lemmingWait bool) {
	t.Helper()
	h, a := newDeviceWith(1<<16, Config{LemmingWait: lemmingWait})
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
// goroutines. A reader observing a torn sum means host threads lost TL2
// opacity under real concurrency.
func TestHostOpacity(t *testing.T) {
	h, a := newDeviceWith(1<<16, Config{})
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

// TestCommitWritesBackInStoreOrder: a commit writes its words back in the
// order they were first stored, across lines and within one, whatever the
// word indexes — the order the trees' absence proofs rely on (a split
// stores a leaf's fences before its seqno). A writer commits the number n
// to seven words in a scrambled store order, one of them stored twice,
// while a reader reads the words with plain loads in the reverse of that
// order. A word written back no later than one read before it can never
// hold less, so a drop between two consecutive reads is a write-back out
// of store order. It catches something only on two or more cores.
func TestCommitWritesBackInStoreOrder(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the reader must run beside the write-back")
	}
	h, a := newDeviceWith(1<<16, Config{})
	boot := h.NewHostThread(0, 1)
	la := a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagKeys)
	lb := a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagKeys)
	stores := []simmem.Addr{la + 5, lb, la, lb + 7, la + 3, la + 5, lb + 4, la + 7}
	reads := []simmem.Addr{la + 7, lb + 4, la + 3, lb + 7, la, lb, la + 5}

	commits := uint64(100_000)
	if testing.Short() {
		commits = 20_000
	}
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		th := h.NewHostThread(1, 7)
		for n := uint64(1); n <= commits && !t.Failed(); n++ {
			th.Execute(DefaultPolicy, func(tx *Tx) {
				for _, addr := range stores {
					tx.Store(addr, n)
				}
			})
		}
	}()
	for !done.Load() {
		prev := a.WordRaw(reads[0])
		for _, addr := range reads[1:] {
			v := a.WordRaw(addr)
			if v < prev {
				t.Errorf("read %d at word %d after %d at the word stored after it: written back out of store order",
					v, addr, prev)
				for !done.Load() {
					runtime.Gosched()
				}
				return
			}
			prev = v
		}
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
			h, a := newDeviceWith(1<<16, Config{LemmingWait: c.lemmingWait})
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
