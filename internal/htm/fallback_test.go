package htm

import (
	"testing"
	"time"

	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// TestCapacityPolicyFallsBack: a body that always exceeds the read-set
// capacity must be executed on the fallback path and still apply its
// effects exactly once.
func TestCapacityPolicyFallsBack(t *testing.T) {
	a := simmem.NewArena(1 << 16)
	h := New(a, Config{MaxReadLines: 4, MaxWriteLines: 64})
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, 16*simmem.WordsPerLine, simmem.TagKeys)
	sum := a.AllocAligned(p, 8, simmem.TagKeys)

	th.Execute(DefaultPolicy, func(tx *Tx) {
		var s uint64
		for i := 0; i < 8; i++ { // 8 lines > capacity 4
			s += tx.Load(base + simmem.Addr(i*simmem.WordsPerLine))
		}
		tx.Store(sum, tx.Load(sum)+1)
	})
	if th.Stats.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1 (%s)", th.Stats.Fallbacks, th.Stats.String())
	}
	if th.Stats.Aborts[AbortCapacity] != uint64(DefaultPolicy.Capacity)+1 {
		t.Fatalf("capacity aborts = %d, want %d", th.Stats.Aborts[AbortCapacity], DefaultPolicy.Capacity+1)
	}
	if got := a.LoadWord(p, sum); got != 1 {
		t.Fatalf("fallback applied %d times", got)
	}
	if h.FallbackHeld() {
		t.Fatal("fallback lock leaked")
	}
}

// TestFallbackMutualExclusionSim: while one thread executes on the
// fallback path, transactional threads must never commit interleaved
// effects — verified with an invariant two-word counter.
func TestFallbackMutualExclusionSim(t *testing.T) {
	a := simmem.NewArena(1 << 16)
	h := New(a, DefaultConfig)
	boot := vclock.NewWallProc(0, 0)
	x := a.AllocAligned(boot, 8, simmem.TagKeys)
	// Invariant: word0 == word1 at every commit boundary.
	sim := vclock.NewSim(6, 0)
	bad := 0
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+1)
		for i := 0; i < 200; i++ {
			body := func(tx *Tx) {
				v0 := tx.Load(x)
				v1 := tx.Load(x + 1)
				if v0 != v1 {
					bad++
				}
				tx.Store(x, v0+1)
				tx.Store(x+1, v1+1)
			}
			if i%17 == 0 {
				th.RunFallback(body) // force the lock path periodically
			} else {
				th.Execute(DefaultPolicy, body)
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d invariant violations across fallback/tx boundary", bad)
	}
	if got := a.LoadWord(boot, x); got != 6*200 {
		t.Fatalf("count = %d, want 1200", got)
	}
}

// TestLockBusyStorm: threads retrying into a held fallback lock burn
// AbortFallbackLock aborts (the lemming behavior) and eventually queue.
func TestLockBusyStorm(t *testing.T) {
	a := simmem.NewArena(1 << 16)
	h := New(a, DefaultConfig)
	boot := vclock.NewWallProc(0, 0)
	x := a.AllocAligned(boot, 8, simmem.TagKeys)

	sim := vclock.NewSim(4, 0)
	var merged Stats
	stats := make([]Stats, 4)
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+1)
		if p.ID() == 0 {
			// Hog the lock repeatedly.
			for i := 0; i < 50; i++ {
				th.RunFallback(func(tx *Tx) {
					for j := 0; j < 50; j++ {
						tx.Store(x+simmem.Addr(j%8), uint64(j))
					}
				})
			}
		} else {
			for i := 0; i < 100; i++ {
				th.Execute(DefaultPolicy, func(tx *Tx) {
					tx.Store(x, tx.Load(x)+1)
				})
			}
		}
		stats[p.ID()] = th.Stats
	})
	for i := range stats {
		merged.Merge(&stats[i])
	}
	if merged.Aborts[AbortFallbackLock] == 0 {
		t.Fatal("no fallback-lock aborts despite a lock hog")
	}
}

// TestTxLoadStoreCounters verifies the instruction-proxy counters.
func TestTxLoadStoreCounters(t *testing.T) {
	a := simmem.NewArena(1 << 14)
	h := New(a, DefaultConfig)
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	x := a.AllocAligned(p, 8, simmem.TagKeys)
	th.Run(func(tx *Tx) {
		tx.Load(x)
		tx.Load(x + 1)
		tx.Store(x+2, 1)
	})
	// +1 load for the fallback-lock subscription.
	if th.Stats.TxLoads != 3 || th.Stats.TxStores != 1 {
		t.Fatalf("loads=%d stores=%d", th.Stats.TxLoads, th.Stats.TxStores)
	}
}

// TestDirectModeTx exercises the fallback-mode Tx API surface.
func TestDirectModeTx(t *testing.T) {
	a := simmem.NewArena(1 << 14)
	h := New(a, DefaultConfig)
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	x := a.AllocAligned(p, 8, simmem.TagKeys)

	th.RunFallback(func(tx *Tx) {
		if !tx.Direct() {
			t.Fatal("not in direct mode")
		}
		tx.Store(x, 5)
		if got := tx.Load(x); got != 5 {
			t.Fatalf("direct load = %d", got)
		}
		addr := tx.AllocAligned(8, simmem.TagReserved)
		if addr == simmem.NilAddr {
			t.Fatal("direct alloc failed")
		}
		a.Free(p, addr, 8, simmem.TagReserved)
	})
	if got := a.LoadWord(p, x); got != 5 {
		t.Fatalf("fallback store lost: %d", got)
	}

	// Abort in direct mode is a programming error and must panic. (The
	// device is test-local, so the lock the panic strands is harmless.)
	defer func() {
		if recover() == nil {
			t.Fatal("Abort in direct mode did not panic")
		}
	}()
	th.RunFallback(func(tx *Tx) { tx.Abort(1) })
}

// TestSerializabilityRandomRegisterFileSim: concurrent random
// multi-register transactions must preserve a global invariant (the sum of
// all registers), which only holds if every commit is atomic.
func TestSerializabilityRandomRegisterFileSim(t *testing.T) {
	a := simmem.NewArena(1 << 18)
	h := New(a, DefaultConfig)
	boot := vclock.NewWallProc(0, 0)
	const regs = 24
	base := a.AllocAligned(boot, regs*simmem.WordsPerLine, simmem.TagKeys)
	reg := func(i int) simmem.Addr { return base + simmem.Addr(i*simmem.WordsPerLine) }
	a.StoreWordDirect(boot, reg(0), 1_000_000)

	sim := vclock.NewSim(8, 0)
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+100)
		r := vclock.NewRand(uint64(p.ID()) + 5)
		for i := 0; i < 300; i++ {
			from, to := r.Intn(regs), r.Intn(regs)
			amt := uint64(r.Intn(10))
			th.Execute(DefaultPolicy, func(tx *Tx) {
				f := tx.Load(reg(from))
				if f < amt {
					return
				}
				tx.Store(reg(from), f-amt)
				tx.Store(reg(to), tx.Load(reg(to))+amt)
			})
		}
	})
	var total uint64
	for i := 0; i < regs; i++ {
		total += a.LoadWord(boot, reg(i))
	}
	if total != 1_000_000 {
		t.Fatalf("conservation violated: total = %d", total)
	}
}

// TestFallbackLoadWaitsForWriteBack: a commit that validated just before
// the fallback lock was taken still holds its write lines locked while it
// applies its stores. A fallback-path load of such a line must wait for
// the unlock and see the commit whole, not read around the line lock — on
// real goroutines and in the virtual-time simulator alike. The commit in
// flight is played by hand: lock the line, start the fallback body, finish
// the write-back.
func TestFallbackLoadWaitsForWriteBack(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		// Core 0 holds the line across ticks while it writes back; core 1
		// takes the fallback lock and loads the line in between.
		a := simmem.NewArena(1 << 12)
		h := New(a, DefaultConfig)
		x := a.AllocAligned(vclock.NewHostProc(0), 8, simmem.TagKeys)
		a.SetWordRaw(x, 1)
		var got uint64
		vclock.NewSim(2, 0).Run(func(p *vclock.SimProc) {
			if p.ID() == 0 {
				if _, ok := a.TryLockLine(x.Line()); !ok {
					t.Error("fresh line already locked")
				}
				p.Tick(10_000)
				a.SetWordRaw(x, 2)
				p.Tick(10_000)
				a.UnlockLine(x.Line(), a.AdvanceClock())
				return
			}
			p.Tick(1_000)
			h.NewThread(p, 1).RunFallback(func(tx *Tx) { got = tx.Load(x) })
		})
		if got != 2 {
			t.Fatalf("fallback load saw %d while a commit was writing the line back, want the committed 2", got)
		}
	})
	for name, mk := range map[string]func(a *simmem.Arena) *Thread{
		"wall": func(a *simmem.Arena) *Thread {
			return New(a, DefaultConfig).NewThread(vclock.NewWallProc(1, 0), 1)
		},
		"host": func(a *simmem.Arena) *Thread {
			return New(a, DefaultConfig).NewHostThread(1, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			a := simmem.NewArena(1 << 12)
			th := mk(a)
			x := a.AllocAligned(th.P, 8, simmem.TagKeys)
			a.SetWordRaw(x, 1)
			if _, ok := a.TryLockLine(x.Line()); !ok {
				t.Fatal("fresh line already locked")
			}
			got := make(chan uint64, 1)
			go th.RunFallback(func(tx *Tx) { got <- tx.Load(x) })
			select {
			case v := <-got:
				t.Fatalf("fallback load returned %d from a line a commit is still writing back", v)
			case <-time.After(20 * time.Millisecond):
			}
			a.SetWordRaw(x, 2)
			a.UnlockLine(x.Line(), a.AdvanceClock())
			if v := <-got; v != 2 {
				t.Fatalf("fallback load saw %d, want the committed 2", v)
			}
		})
	}
}
