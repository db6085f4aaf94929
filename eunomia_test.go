package eunomia

import (
	"sync"
	"testing"

	"eunomia/internal/htm"
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

// TestResilienceReachesEveryKind: Options.Resilience hardens the device,
// so it must reach whichever tree Kind builds. Core 0 sits on the device's
// fallback lock over and over while cores 1-3 put; with the lemming wait
// every HTM tree takes strictly fewer fallback-lock aborts, and Masstree,
// which runs no transactions, takes none either way.
func TestResilienceReachesEveryKind(t *testing.T) {
	lockAborts := func(k Kind, resilience bool) uint64 {
		db, err := Open(Options{Kind: k, ArenaWords: 1 << 20, Resilience: resilience})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		res := db.RunVirtual(4, func(th *Thread) {
			id := uint64(th.th.P.ID())
			if id == 0 {
				for i := 0; i < 30; i++ {
					th.th.RunFallback(func(tx *htm.Tx) { tx.Proc().Tick(5_000) })
				}
				return
			}
			for i := uint64(0); i < 200; i++ {
				th.Put(id<<32|i, i)
			}
		})
		return res.Stats.AbortsByReason[htm.AbortFallbackLock.String()]
	}
	for _, k := range []Kind{EunoBTree, HTMBTree, Masstree, HTMMasstree} {
		fragile, hardened := lockAborts(k, false), lockAborts(k, true)
		t.Logf("%v: fallback-lock aborts %d fragile, %d resilient", k, fragile, hardened)
		if k == Masstree {
			if fragile != 0 || hardened != 0 {
				t.Errorf("%v: %d and %d fallback-lock aborts, want 0", k, fragile, hardened)
			}
			continue
		}
		if hardened >= fragile {
			t.Errorf("%v: Resilience did not reduce fallback-lock aborts: %d vs fragile %d", k, hardened, fragile)
		}
	}
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
