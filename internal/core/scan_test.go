package core

import (
	"math/rand"
	"sort"
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree/treetest"
)

// scanTree is a tree preloaded with every other key of [0, 2n), so leaves
// hold both stable and segment records and a scan crosses several of them.
func scanTree(t *testing.T, host bool, n uint64) (*Tree, *htm.Thread) {
	t.Helper()
	mk := treetest.NewDevice
	if host {
		mk = treetest.NewHostDevice
	}
	h, boot := mk(1 << 22)
	tr := New(h, boot, DefaultConfig)
	for _, k := range rand.New(rand.NewSource(1)).Perm(int(n)) {
		tr.Put(boot, 2*uint64(k), uint64(k))
	}
	return tr, boot
}

// TestScanAllocationFree: once a thread has its scratch, a scan allocates
// nothing — no per-leaf map, no reflection sort, no per-call buffer — on
// either backend.
func TestScanAllocationFree(t *testing.T) {
	for _, host := range []bool{true, false} {
		tr, th := scanTree(t, host, 4000)
		visit := func(_, _ uint64) bool { return true }
		from := uint64(0)
		allocs := testing.AllocsPerRun(200, func() {
			if n := tr.Scan(th, from%8000, 64, visit); n == 0 {
				t.Fatal("scan visited nothing")
			}
			from += 1237
		})
		if allocs != 0 {
			t.Errorf("host=%v: Scan allocates %.1f times per call, want 0", host, allocs)
		}
	}
}

// TestScanReentrant: the scratch is borrowed for the length of a call, so a
// Scan started from inside fn on the same thread gets a buffer of its own
// and the outer scan's records survive it.
func TestScanReentrant(t *testing.T) {
	tr, th := scanTree(t, true, 2000)
	var outer []uint64
	tr.Scan(th, 0, 200, func(k, _ uint64) bool {
		outer = append(outer, k)
		inner := 0
		tr.Scan(th, 3000, 40, func(ik, _ uint64) bool {
			if want := 3000 + 2*uint64(inner); ik != want {
				t.Fatalf("inner scan key %d, want %d", ik, want)
			}
			inner++
			return true
		})
		return true
	})
	if len(outer) != 200 {
		t.Fatalf("outer scan visited %d keys, want 200", len(outer))
	}
	for i, k := range outer {
		if k != 2*uint64(i) {
			t.Fatalf("outer[%d] = %d, want %d: the nested scan clobbered the outer buffer", i, k, 2*i)
		}
	}
	if _, ok := th.Scratch.(*threadScratch); !ok {
		t.Fatal("scratch not returned to the thread")
	}
}

// TestScanCallbackPutBuildsOwnScratch: a Put issued from a scan callback
// that runs the leaf's maintenance (a split stages the leaf's records) finds
// the scratch lent out and builds its own, so the records the scan has yet
// to deliver survive it.
func TestScanCallbackPutBuildsOwnScratch(t *testing.T) {
	tr, th := scanTree(t, true, 2000)
	splits := tr.Splits()
	var got []uint64
	next := uint64(1)
	tr.Scan(th, 0, 400, func(k, _ uint64) bool {
		got = append(got, k)
		// Odd keys well past the scan's position, dense enough to split.
		for i := 0; i < 8; i++ {
			tr.Put(th, 3001+2*next, next)
			next++
		}
		return true
	})
	if tr.Splits() == splits {
		t.Fatal("the nested puts split no leaf; the test exercises nothing")
	}
	if len(got) != 400 {
		t.Fatalf("scan visited %d keys, want 400", len(got))
	}
	for i, k := range got {
		if k != 2*uint64(i) {
			t.Fatalf("scan[%d] = %d, want %d: a nested put clobbered the scan's buffer", i, k, 2*i)
		}
	}
}

// TestPutMaintenanceAllocationFree: compactions and splits stage a leaf's
// records and the split's path in the thread's scratch, not in buffers made
// inside a transaction body that retries, so a warmed-up thread's puts and
// deletes allocate nothing at all.
func TestPutMaintenanceAllocationFree(t *testing.T) {
	tr, th := scanTree(t, true, 4000)
	next := uint64(0)
	churn := func() {
		for i := 0; i < 20000; i++ {
			k := 8000 + next
			tr.Put(th, k, k)
			if next%2 == 1 {
				tr.Delete(th, k-1)
			}
			next++
		}
	}
	// Warm up what grows to a high-water mark and then stays: the Tx's own
	// buffers and tables, the arena's per-size free lists, the split path.
	churn()
	splits, compactions := tr.Splits(), tr.Compactions()
	// One run measured (after AllocsPerRun's own warm-up run): the integer
	// average over a single run hides no allocation.
	allocs := testing.AllocsPerRun(1, churn)
	if tr.Splits() == splits || tr.Compactions() == compactions {
		t.Fatalf("churn caused %d splits and %d compactions; the test needs both",
			tr.Splits()-splits, tr.Compactions()-compactions)
	}
	if allocs != 0 {
		t.Errorf("20000 puts and 10000 deletes allocate %.0f times, want 0", allocs)
	}
}

// TestScanReservedAccounting: the reserved-keys staging is accounted while
// a leaf's records are being emitted and gone afterwards (Section 5.7),
// though no arena line backs it any more.
func TestScanReservedAccounting(t *testing.T) {
	tr, th := scanTree(t, true, 2000)
	a := tr.a
	live := a.LiveBytes()
	var during int64
	tr.Scan(th, 100, 50, func(_, _ uint64) bool {
		during = a.BytesByTag(simmem.TagReserved)
		return true
	})
	if during < 2*simmem.WordBytes {
		t.Fatalf("reserved bytes during a scan = %d, want the staged leaf accounted", during)
	}
	if got := a.BytesByTag(simmem.TagReserved); got != 0 {
		t.Fatalf("reserved bytes after the scan = %d, want 0", got)
	}
	if got := a.LiveBytes(); got != live {
		t.Fatalf("live bytes moved %d -> %d across a scan", live, got)
	}
	if a.PeakBytes() < live+during {
		t.Fatalf("peak %d does not include the staging (%d live + %d reserved)", a.PeakBytes(), live, during)
	}
}

// TestSortPairsMatchesSort: the insertion sort agrees with sort.Slice on
// what collectLive hands it — a few sorted runs of distinct keys.
func TestSortPairsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 500; round++ {
		var recs []pair
		for run := rng.Intn(6); run >= 0; run-- {
			var keys []uint64
			for i := rng.Intn(8); i > 0; i-- {
				keys = append(keys, rng.Uint64()>>40<<8|uint64(run)) // distinct across runs
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				recs = append(recs, pair{k, k ^ 1})
			}
		}
		want := append([]pair(nil), recs...)
		sort.Slice(want, func(i, j int) bool { return want[i].k < want[j].k })
		sortPairs(recs)
		for i := range want {
			if recs[i] != want[i] {
				t.Fatalf("round %d: sortPairs[%d] = %v, want %v", round, i, recs[i], want[i])
			}
		}
	}
}
