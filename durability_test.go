package eunomia

import (
	"errors"
	"testing"

	"eunomia/internal/durable"
)

func TestCloseIdempotentAndErrClosed(t *testing.T) {
	db, err := Open(Options{ArenaWords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th := db.NewThread()
	if err := th.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, _, err := th.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if err := th.Put(2, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := th.Delete(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete after close: %v", err)
	}
	if _, err := th.Scan(0, 10, func(k, v uint64) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan after close: %v", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if err := db.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close: %v", err)
	}
}

func TestDurableRoundtripAllKinds(t *testing.T) {
	for _, k := range []Kind{EunoBTree, HTMBTree, Masstree, HTMMasstree} {
		t.Run(k.String(), func(t *testing.T) {
			fs := durable.NewMemFS(durable.FaultPlan{})
			open := func() *DB {
				db, err := Open(Options{Kind: k, ArenaWords: 1 << 20,
					Durability: Durability{Dir: "db", FS: fs}})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			th := db.NewThread()
			for i := uint64(1); i <= 300; i++ {
				if err := th.Put(i, i*7); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(2); i <= 300; i += 3 {
				if ok, err := th.Delete(i); err != nil || !ok {
					t.Fatalf("delete %d: %v %v", i, ok, err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := open()
			defer db2.Close()
			ds := db2.Metrics().Durability
			if !ds.Enabled || ds.ReplayedFrames == 0 {
				t.Fatalf("recovery replayed nothing: %+v", ds)
			}
			th2 := db2.NewThread()
			for i := uint64(1); i <= 300; i++ {
				v, ok, err := th2.Get(i)
				if err != nil {
					t.Fatal(err)
				}
				deleted := i >= 2 && (i-2)%3 == 0
				if deleted && ok {
					t.Fatalf("%v: deleted key %d resurrected", k, i)
				}
				if !deleted && (!ok || v != i*7) {
					t.Fatalf("%v: key %d lost (got %d,%v)", k, i, v, ok)
				}
			}
		})
	}
}

func TestDurableSnapshotAndRecovery(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	db, err := Open(Options{ArenaWords: 1 << 20,
		Durability: Durability{Dir: "db", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	th := db.NewThread()
	for i := uint64(1); i <= 500; i++ {
		if err := th.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(501); i <= 600; i++ {
		if err := th.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if db.Metrics().Durability.Snapshots != 1 {
		t.Fatalf("snapshots: %+v", db.Metrics().Durability)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{ArenaWords: 1 << 20,
		Durability: Durability{Dir: "db", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ds := db2.Metrics().Durability
	if ds.SnapshotPairs != 500 {
		t.Fatalf("recovered %d snapshot pairs, want 500", ds.SnapshotPairs)
	}
	if ds.ReplayedFrames != 100 {
		t.Fatalf("replayed %d frames, want 100", ds.ReplayedFrames)
	}
	th2 := db2.NewThread()
	n, err := th2.Scan(1, 1000, func(k, v uint64) bool { return k == v })
	if err != nil || n != 600 {
		t.Fatalf("scan after recovery: n=%d err=%v", n, err)
	}
}

func TestAutoSnapshotViaOptions(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	db, err := Open(Options{ArenaWords: 1 << 20,
		Durability: Durability{Dir: "db", FS: fs, SnapshotBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	th := db.NewThread()
	for i := uint64(1); i <= 1000; i++ {
		if err := th.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	ds := db.Metrics().Durability
	if ds.Snapshots == 0 {
		t.Fatalf("auto-snapshot never fired: %+v", ds)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{ArenaWords: 1 << 20,
		Durability: Durability{Dir: "db", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	th2 := db2.NewThread()
	for i := uint64(1); i <= 1000; i++ {
		if v, ok, _ := th2.Get(i); !ok || v != i {
			t.Fatalf("key %d lost after auto-snapshot recovery", i)
		}
	}
}

func TestRunVirtualPanicsWithDurability(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	db, err := Open(Options{ArenaWords: 1 << 20,
		Durability: Durability{Dir: "db", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("RunVirtual with durability did not panic")
		}
	}()
	db.RunVirtual(2, func(t *Thread) {})
}

func TestOsFilesystemDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{ArenaWords: 1 << 20, Durability: Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	th := db.NewThread()
	for i := uint64(1); i <= 50; i++ {
		if err := th.Put(i, i^0xff); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{ArenaWords: 1 << 20, Durability: Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	th2 := db2.NewThread()
	for i := uint64(1); i <= 50; i++ {
		if v, ok, _ := th2.Get(i); !ok || v != i^0xff {
			t.Fatalf("key %d lost across real-disk restart", i)
		}
	}
}
