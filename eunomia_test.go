package eunomia

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/tree/kind"
	"eunomia/internal/vclock"
)

func TestOpenDefaultsAndQuickPath(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Kind() != EunoBTree {
		t.Fatalf("default kind = %v", db.Kind())
	}
	th := db.NewThread()
	if err := th.Put(10, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := th.Get(10); !ok || v != 100 {
		t.Fatalf("get = %d,%v", v, ok)
	}
	if _, ok, _ := th.Get(11); ok {
		t.Fatal("phantom key")
	}
	if ok, _ := th.Delete(10); !ok {
		t.Fatal("delete failed")
	}
	if ok, _ := th.Delete(10); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestOpenAllKinds(t *testing.T) {
	for _, k := range []Kind{EunoBTree, HTMBTree, Masstree, HTMMasstree} {
		db, err := Open(Options{Kind: k, ArenaWords: 1 << 20})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		th := db.NewThread()
		for i := uint64(1); i <= 200; i++ {
			if err := th.Put(i, i*2); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(1); i <= 200; i++ {
			if v, ok, _ := th.Get(i); !ok || v != i*2 {
				t.Fatalf("%v: get(%d) = %d,%v", k, i, v, ok)
			}
		}
		n, _ := th.Scan(50, 10, func(k, v uint64) bool { return true })
		if n != 10 {
			t.Fatalf("%v: scan visited %d", k, n)
		}
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestReservedValueRejected(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 18})
	th := db.NewThread()
	if err := th.Put(1, ^uint64(0)); err != ErrReservedValue {
		t.Fatalf("err = %v", err)
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Open(Options{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestOpenHardensEveryKind: Open always sets the device's lemming wait, so
// it must reach whichever tree Kind builds. Core 0 sits on the device's
// fallback lock over and over while cores 1-3 put; against the same tree
// built by kind.New on a fragile htm.DefaultConfig device, every HTM tree
// Open builds takes strictly fewer fallback-lock aborts, and Masstree,
// which runs no transactions, takes none either way.
func TestOpenHardensEveryKind(t *testing.T) {
	// lockAborts runs the workload on kv in virtual time over device.
	lockAborts := func(device *htm.HTM, kv tree.KV) uint64 {
		var stats [4]htm.Stats
		vclock.NewSim(4, 0).Run(func(p *vclock.SimProc) {
			th := device.NewThread(p, uint64(p.ID())*7919+13)
			id := uint64(p.ID())
			if id == 0 {
				for i := 0; i < 30; i++ {
					th.RunFallback(func(tx *htm.Tx) { tx.Proc().Tick(5_000) })
				}
			} else {
				for i := uint64(0); i < 200; i++ {
					kv.Put(th, id<<32|i, i)
				}
			}
			stats[id] = th.Stats
		})
		var n uint64
		for i := range stats {
			n += stats[i].Aborts[htm.AbortFallbackLock]
		}
		return n
	}
	for _, k := range []Kind{EunoBTree, HTMBTree, Masstree, HTMMasstree} {
		device := htm.New(simmem.NewArena(1<<20), htm.DefaultConfig)
		fragile := lockAborts(device, kind.New(k, device, device.NewHostThread(0, 1), core.DefaultConfig))
		db, err := Open(Options{Kind: k, ArenaWords: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		hardened := lockAborts(db.device, db.kv)
		db.Close()
		t.Logf("%v: fallback-lock aborts %d fragile, %d from Open", k, fragile, hardened)
		if k == Masstree {
			if fragile != 0 || hardened != 0 {
				t.Errorf("%v: %d and %d fallback-lock aborts, want 0", k, fragile, hardened)
			}
			continue
		}
		if hardened >= fragile {
			t.Errorf("%v: Open did not reduce fallback-lock aborts: %d vs fragile %d", k, hardened, fragile)
		}
	}
}

// TestEmulatedWaitersYield is internal/core's TestHostWaitersYield with
// the handles NewThread gives out: one core, more goroutines than cores,
// and a lock holder descheduled inside its critical section. A waiter
// whose failed iterations never reached the scheduler would burn its whole
// time slice each time that happens; NewThread's handles yield in Proc.Spin
// like any goroutine's, so each hand-off costs microseconds.
func TestEmulatedWaitersYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		workers  = 6
		rounds   = 400
		deadline = 20 * time.Second
	)
	db, err := Open(Options{ArenaWords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a := db.arena
	word := a.AllocAligned(vclock.NewHostProc(0), simmem.WordsPerLine, simmem.TagNone)

	contend := func(t *testing.T, body func(th *htm.Thread, w, i int)) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			th := db.NewThread()
			go func(w int) {
				defer wg.Done()
				defer th.Close()
				for i := 0; i < rounds; i++ {
					body(th.th, w, i)
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
	t.Run("FallbackLock", func(t *testing.T) {
		// Half the workers hold the fallback lock across a deschedule; the
		// other half run transactions that wait it out (the lemming wait)
		// and retry.
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

func TestConcurrentWallThreads(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22})
	var wg sync.WaitGroup
	const workers, per = 6, 300
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := db.NewThread()
			base := uint64(w*per) + 1
			for i := uint64(0); i < per; i++ {
				th.Put(base+i, base+i)
			}
		}(w)
	}
	wg.Wait()
	th := db.NewThread()
	for k := uint64(1); k <= workers*per; k++ {
		if v, ok, _ := th.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestRunVirtualDeterministic(t *testing.T) {
	run := func() VirtualResult {
		db, _ := Open(Options{ArenaWords: 1 << 22})
		return db.RunVirtual(4, func(t *Thread) {
			for i := uint64(1); i <= 300; i++ {
				t.Put(i, i)
			}
		})
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Stats.Commits != b.Stats.Commits {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	if a.Cycles == 0 || a.Seconds <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if a.Stats.Commits == 0 {
		t.Fatal("no commits recorded")
	}
}

func TestStatsAndMemory(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 20})
	th := db.NewThread()
	for i := uint64(1); i <= 300; i++ {
		th.Put(i, i)
	}
	s := th.Stats()
	if s.Commits == 0 {
		t.Fatal("no commits")
	}
	m := db.Metrics().Memory
	if m.LiveBytes <= 0 || m.PeakBytes < m.LiveBytes {
		t.Fatalf("memory stats: %+v", m)
	}
	if m.CCMBytes <= 0 {
		t.Fatal("no CCM accounting")
	}
	if m.ReservedBytes != 0 {
		t.Fatalf("reserved bytes leaked: %d", m.ReservedBytes)
	}
}

// TestPublicAPIContentionShape reproduces the headline result end-to-end
// through the public API alone: under a contended Zipfian mix in virtual
// time, the Eunomia tree must beat the monolithic baseline.
func TestPublicAPIContentionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("contention shape needs paper-scale parameters")
	}
	run := func(kind Kind) (opsPerSec float64, aborts uint64) {
		db, err := Open(Options{Kind: kind, ArenaWords: 1 << 23})
		if err != nil {
			t.Fatal(err)
		}
		loader := db.NewThread()
		for k := uint64(1); k <= 40_000; k += 2 {
			loader.Put(k, k)
		}
		const threads, each = 20, 800
		res := db.RunVirtual(threads, func(th *Thread) {
			// Small deterministic Zipfian-ish hot set: 30% of ops hit 16
			// hot keys, the rest spread out.
			state := uint64(12345)
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			for i := 0; i < each; i++ {
				var k uint64
				if next()%10 < 3 {
					k = next()%16 + 1
				} else {
					k = next()%40_000 + 1
				}
				if i%2 == 0 {
					th.Put(k, k)
				} else {
					th.Get(k)
				}
			}
		})
		return float64(threads*each) / res.Seconds, res.Stats.Aborts
	}
	eunoTput, eunoAborts := run(EunoBTree)
	baseTput, baseAborts := run(HTMBTree)
	if eunoTput <= baseTput {
		t.Fatalf("euno %.1fM <= baseline %.1fM ops/s under contention",
			eunoTput/1e6, baseTput/1e6)
	}
	if eunoAborts >= baseAborts {
		t.Fatalf("euno aborts %d >= baseline %d", eunoAborts, baseAborts)
	}
	t.Logf("public-API shape: euno %.1fM (%d aborts) vs base %.1fM (%d aborts)",
		eunoTput/1e6, eunoAborts, baseTput/1e6, baseAborts)
}
