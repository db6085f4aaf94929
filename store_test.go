package eunomia

import (
	"slices"
	"testing"
)

// TestStoreHandleConformance holds a DB's Thread and a Cluster's Session
// to the one Handle contract: the same calls give the same answers
// whichever store minted the handle.
func TestStoreHandleConformance(t *testing.T) {
	stores := map[string]func() (Store, error){
		"DB": func() (Store, error) { return Open(Options{ArenaWords: 1 << 19}) },
		"Cluster": func() (Store, error) {
			return OpenCluster(ClusterOptions{Shards: 4, Shard: Options{ArenaWords: 1 << 19}})
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			st, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			h := st.NewHandle()
			defer h.Close()
			for k := uint64(1); k <= 100; k++ {
				if err := h.Put(k, k*3); err != nil {
					t.Fatal(err)
				}
			}
			if v, ok, err := h.Get(7); v != 21 || !ok || err != nil {
				t.Fatalf("Get(7) = %d, %v, %v", v, ok, err)
			}
			if ok, err := h.Delete(7); !ok || err != nil {
				t.Fatalf("Delete(7) = %v, %v", ok, err)
			}
			if ok, err := h.Delete(7); ok || err != nil {
				t.Fatalf("second Delete(7) = %v, %v", ok, err)
			}
			if _, ok, _ := h.Get(7); ok {
				t.Fatal("Get(7) finds a deleted key")
			}
			if err := h.Put(200, ^uint64(0)); err != ErrReservedValue {
				t.Fatalf("Put of the reserved value = %v", err)
			}

			var got []uint64
			n, err := h.Scan(5, 4, func(k, v uint64) bool {
				got = append(got, k)
				return v == k*3
			})
			if n != 4 || err != nil || !slices.Equal(got, []uint64{5, 6, 8, 9}) {
				t.Fatalf("Scan(5,4) = %d, %v visiting %v", n, err, got)
			}
			// The key fn stops on is seen but not counted, on both handles.
			got = got[:0]
			n, err = h.Scan(5, 10, func(k, _ uint64) bool {
				got = append(got, k)
				return k < 8
			})
			if n != 2 || err != nil || !slices.Equal(got, []uint64{5, 6, 8}) {
				t.Fatalf("Scan stopped by fn = %d, %v visiting %v, want 2 visiting [5 6 8]", n, err, got)
			}
			if n, err := h.Scan(101, 10, func(_, _ uint64) bool { return true }); n != 0 || err != nil {
				t.Fatalf("Scan past the last key = %d, %v", n, err)
			}
			// A limit of zero or less visits nothing and reads nothing.
			for _, max := range []int{0, -1} {
				before := st.Metrics().Tx.Attempts
				n, err := h.Scan(1, max, func(k, _ uint64) bool {
					t.Fatalf("Scan(1,%d) visited key %d", max, k)
					return false
				})
				if n != 0 || err != nil {
					t.Fatalf("Scan(1,%d) = %d, %v; want 0, nil", max, n, err)
				}
				if used := st.Metrics().Tx.Attempts - before; used != 0 {
					t.Fatalf("Scan(1,%d) ran %d transactions, want none", max, used)
				}
			}

			got = got[:0]
			for k, v := range h.Range(98, 1000) {
				if v != k*3 {
					t.Fatalf("Range yields %d=%d", k, v)
				}
				got = append(got, k)
			}
			if !slices.Equal(got, []uint64{98, 99, 100}) {
				t.Fatalf("Range(98,1000) yields %v", got)
			}

			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Scan(1, 0, nil); err != ErrClosed {
				t.Fatalf("Scan on a closed store = %v, want ErrClosed", err)
			}
			if _, _, err := h.Get(1); err != ErrClosed {
				t.Fatalf("Get on a closed store = %v, want ErrClosed", err)
			}
		})
	}
}

// TestHandleIDsRecycled: a closed handle's proc id goes back to its DB, so
// the emulated backend's cap is on handles alive at once, not on handles
// ever created — a server that opens a handle per connection does not die
// at its 255th. Both stores; only the live-handle cap itself may panic,
// and it panics in NewThread, not inside the first operation.
func TestHandleIDsRecycled(t *testing.T) {
	db, err := Open(Options{ArenaWords: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := OpenCluster(ClusterOptions{Shards: 4, Shard: Options{ArenaWords: 1 << 19}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, st := range map[string]Store{"DB": db, "Cluster": c} {
		for i := uint64(0); i < 1000; i++ {
			h := st.NewHandle()
			for k := i; k < i+4; k++ { // four keys: every cluster shard gets a thread
				if err := h.Put(k, i); err != nil {
					t.Fatalf("%s: handle %d: %v", name, i, err)
				}
			}
			h.Close()
		}
	}
	// Snapshots borrow a handle each; they give it back too.
	dur, err := Open(Options{ArenaWords: 1 << 19, Durability: Durability{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for i := 0; i < 300; i++ {
		if err := dur.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}

	live := make([]*Thread, 254)
	for i := range live {
		live[i] = db.NewThread()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the 255th live handle on an emulated DB did not panic in NewThread")
			}
		}()
		db.NewThread()
	}()
	live[0].Close()
	th := db.NewThread() // room again
	if err := th.Put(1, 1); err != nil {
		t.Fatal(err)
	}
}
