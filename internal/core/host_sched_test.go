package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree/treetest"
)

// TestHostWaitersYield is the case a host thread's scheduling points
// exist for: one core, more goroutines than cores, and a lock holder that
// is descheduled inside its critical section. A waiter whose failed
// iterations never reached the scheduler would burn its whole time slice
// (the runtime preempts it only after ~10 ms) each time that happens, and
// rounds·10 ms is far past the deadline; with the waits yielding through
// Proc.Spin each hand-off costs microseconds.
func TestHostWaitersYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		workers  = 6
		rounds   = 400
		deadline = 20 * time.Second
	)
	h, _ := treetest.NewDevice(1 << 20)
	boot := h.NewHostThread(0, 1)
	tr := New(h, boot, DefaultConfig)
	tr.Put(boot, 1, 1)
	leaf, _ := tr.leafState(boot, 1)
	ccm := tr.ccmAddr(leaf)
	a := h.Arena()
	word := a.AllocAligned(boot.P, simmem.WordsPerLine, simmem.TagNone)

	// contend runs body(worker thread, round) on every worker and fails the
	// test if they have not all finished by the deadline.
	contend := func(t *testing.T, body func(th *htm.Thread, w, i int)) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			th := h.NewHostThread(w+1, uint64(w)+7)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					body(th, w, i)
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(deadline):
			t.Fatalf("%d goroutines on one core did not finish %d rounds in %v: waiters starve the lock holder", workers, rounds, deadline)
		}
	}

	t.Run("ArenaLine", func(t *testing.T) {
		// Worker 0 takes the line lock the way a committing transaction
		// does and is descheduled holding it; the rest store through it.
		line := word.Line()
		contend(t, func(th *htm.Thread, w, i int) {
			if w != 0 {
				a.StoreWordDirect(th.P, word, uint64(i))
				return
			}
			for {
				if prev, ok := a.TryLockLine(line); ok {
					runtime.Gosched()
					a.RestoreLine(line, prev)
					return
				}
				th.P.Spin(a.Costs().SpinIter)
			}
		})
	})
	t.Run("CCMSlotLock", func(t *testing.T) {
		contend(t, func(th *htm.Thread, w, i int) {
			tr.lockSlot(th.P, ccm, 3)
			runtime.Gosched()
			tr.unlockSlot(th.P, ccm, 3)
		})
	})
	t.Run("CCMSlotReader", func(t *testing.T) {
		// Half the workers hold slot 3 across a deschedule; the other half
		// wait it out the way a get does.
		contend(t, func(th *htm.Thread, w, i int) {
			if w%2 == 0 {
				tr.lockSlot(th.P, ccm, 3)
				runtime.Gosched()
				tr.unlockSlot(th.P, ccm, 3)
				return
			}
			tr.awaitSlot(th.P, ccm, 3)
		})
	})
	t.Run("CCMLeafLock", func(t *testing.T) {
		contend(t, func(th *htm.Thread, w, i int) {
			tr.lockLeaf(th.P, ccm)
			runtime.Gosched()
			tr.unlockLeaf(th.P, ccm)
		})
	})
	t.Run("FallbackLock", func(t *testing.T) {
		// Half the workers hold the fallback lock across a deschedule; the
		// other half run transactions that abort against it and retry.
		contend(t, func(th *htm.Thread, w, i int) {
			if w%2 == 0 {
				th.RunFallback(func(tx *htm.Tx) {
					runtime.Gosched()
					tx.Store(word, tx.Load(word)+1)
				})
				return
			}
			th.Execute(htm.DefaultPolicy, func(tx *htm.Tx) { tx.Load(word) })
		})
	})
}

// TestHostSlotBitsIndependent: writers of different slots of one leaf's
// CCM, on real goroutines, never disturb each other's bits. Each takes and
// releases its own slot 100 000 times and finds its bit set for as long as
// it holds it; a release that borrowed, or a fetch-or that lost a
// neighbour's bit, would show as a bit missing while held or a word left
// nonzero at the end.
func TestHostSlotBitsIndependent(t *testing.T) {
	const rounds = 100_000
	workers := min(4, max(2, runtime.GOMAXPROCS(0)))
	h, _ := treetest.NewDevice(1 << 20)
	boot := h.NewHostThread(0, 1)
	tr := New(h, boot, DefaultConfig)
	tr.Put(boot, 1, 1)
	leaf, _ := tr.leafState(boot, 1)
	ccm := tr.ccmAddr(leaf)
	a := h.Arena()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		th := h.NewHostThread(w+1, uint64(w)+7)
		go func(slot uint) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tr.lockSlot(th.P, ccm, slot)
				if a.WordRaw(ccm+ccmLockBits)&(1<<slot) == 0 {
					t.Errorf("slot %d: bit clear while held (round %d)", slot, i)
					return
				}
				tr.unlockSlot(th.P, ccm, slot)
			}
		}(uint(3 * w))
	}
	wg.Wait()
	if bits := a.WordRaw(ccm + ccmLockBits); bits != 0 {
		t.Fatalf("lock bits %b after every writer released its slot, want 0", bits)
	}
}
