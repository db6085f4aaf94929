package eunomia

import (
	"sync"
	"testing"
)

func TestHostBackendBasicOps(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	th := db.NewThread()
	if err := th.Put(1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := th.Get(1); err != nil || !ok || v != 100 {
		t.Fatalf("get = %d,%v,%v", v, ok, err)
	}
	if ok, err := th.Delete(1); err != nil || !ok {
		t.Fatalf("delete = %v,%v", ok, err)
	}
	if _, ok, _ := th.Get(1); ok {
		t.Fatal("deleted key still present")
	}
}

func TestHostBackendAllKinds(t *testing.T) {
	for _, kind := range []Kind{EunoBTree, HTMBTree, Masstree, HTMMasstree} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := Open(Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			workers, per := 4, 500
			if testing.Short() {
				per = 150
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := db.NewThread()
					base := uint64(w*per) + 1
					for i := uint64(0); i < uint64(per); i++ {
						if err := th.Put(base+i, (base+i)*2); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			th := db.NewThread()
			for k := uint64(1); k <= uint64(workers*per); k++ {
				if v, ok, err := th.Get(k); err != nil || !ok || v != k*2 {
					t.Fatalf("get(%d) = %d,%v,%v after concurrent fill", k, v, ok, err)
				}
			}
		})
	}
}

func TestHostBackendSharedContention(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const hot = 8
	th0 := db.NewThread()
	for k := uint64(1); k <= hot; k++ {
		if err := th0.Put(k, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	workers, ops := 6, 400
	if testing.Short() {
		ops = 120
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := db.NewThread()
			for i := 0; i < ops; i++ {
				k := uint64(i%hot) + 1
				if i%2 == 0 {
					if err := th.Put(k, 1<<40|uint64(w)<<20|uint64(i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				} else {
					v, ok, err := th.Get(k)
					if err != nil || !ok || v&(1<<40) == 0 {
						t.Errorf("get(%d) = %d,%v,%v", k, v, ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Per-thread stats still work on a handle.
	s := th0.Stats()
	if s.Commits == 0 {
		t.Fatal("boot-era thread recorded no commits")
	}
}

// TestHostBackendRunVirtualMatchesDefault: Backend is a deprecated field
// with no effect, so RunVirtual on a DB opened with Backend: Host runs the
// same virtual cores, to the cycle and the commit, as on the default DB.
func TestHostBackendRunVirtualMatchesDefault(t *testing.T) {
	run := func(o Options) VirtualResult {
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		th := db.NewThread()
		for k := uint64(0); k < 256; k++ {
			if err := th.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
		return db.RunVirtual(4, func(th *Thread) {
			for i := uint64(0); i < 200; i++ {
				k := (i*7 + uint64(th.th.P.ID())) % 64
				if i%2 == 0 {
					th.Put(k, i)
				} else {
					th.Get(k)
				}
			}
		})
	}
	def := run(Options{ArenaWords: 1 << 20})
	host := run(Options{ArenaWords: 1 << 20, Backend: Host})
	if def.Cycles == 0 || def.Stats.Commits == 0 {
		t.Fatalf("RunVirtual did no work: %+v", def)
	}
	if host.Cycles != def.Cycles || host.Stats.Commits != def.Stats.Commits {
		t.Fatalf("Backend: Host ran %d cycles and %d commits, the default %d and %d",
			host.Cycles, host.Stats.Commits, def.Cycles, def.Stats.Commits)
	}
}

// TestHostClosedHandlesReportStats: a handle folds its statistics into
// the device only every 64 completions, so a handle that does a few
// ops and closes must fold the remainder on Close — or Metrics never sees
// short-lived handles at all.
func TestHostClosedHandlesReportStats(t *testing.T) {
	const handles, puts = 20, 10
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cl, err := OpenCluster(ClusterOptions{Shards: 4, Shard: Options{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for name, st := range map[string]Store{"DB": db, "Cluster": cl} {
		before := st.Metrics().Tx.Commits
		for h := uint64(0); h < handles; h++ {
			hd := st.NewHandle()
			for i := uint64(1); i <= puts; i++ {
				if err := hd.Put(h*puts+i, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := hd.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if got := st.Metrics().Tx.Commits - before; got < handles*puts {
			t.Errorf("%s: %d closed handles x %d puts moved Tx.Commits by %d, want >= %d",
				name, handles, puts, got, handles*puts)
		}
	}
}
