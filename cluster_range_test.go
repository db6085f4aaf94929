package eunomia

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterRangeMergedOrder: the merged iterator yields every key in
// [from, to] exactly once, globally ascending, no matter which shard owns
// it — hash partitioning interleaves neighbors across shards, so this is
// the k-way merge's correctness test.
func TestClusterRangeMergedOrder(t *testing.T) {
	c := testCluster(t, 3, HashPartition)
	sess := c.NewSession()
	var want []uint64
	for k := uint64(1); k <= 500; k++ {
		key := k * 2654435761 % 100_000 // scattered, deterministic
		if err := sess.Put(key, key+1); err != nil {
			t.Fatal(err)
		}
		want = append(want, key)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	// Dedup (the generator may collide).
	dedup := want[:0]
	for i, k := range want {
		if i == 0 || k != want[i-1] {
			dedup = append(dedup, k)
		}
	}
	want = dedup

	var got []uint64
	prev, have := uint64(0), false
	for k, v := range sess.Range(0, ^uint64(0)) {
		if have && k <= prev {
			t.Fatalf("merge emitted %d after %d (not strictly increasing)", k, prev)
		}
		if v != k+1 {
			t.Fatalf("key %d carries value %d, want %d", k, v, k+1)
		}
		prev, have = k, true
		got = append(got, k)
	}
	if len(got) != len(want) {
		t.Fatalf("merged range yielded %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Windowed: both endpoints inclusive, cross-shard.
	lo, hi := want[10], want[40]
	n := 0
	for k := range sess.Range(lo, hi) {
		if k < lo || k > hi {
			t.Fatalf("window [%d,%d] yielded %d", lo, hi, k)
		}
		n++
	}
	if n != 31 {
		t.Fatalf("window yielded %d keys, want 31", n)
	}
}

// TestClusterRangeShardBoundaries: under RangePartition, keys on both
// sides of every shard boundary appear in order — the merge hands over
// from shard i's iterator to shard i+1's exactly at the cut.
func TestClusterRangeShardBoundaries(t *testing.T) {
	c := testCluster(t, 4, RangePartition)
	sess := c.NewSession()
	width := ^uint64(0)/4 + 1
	var want []uint64
	for i := uint64(0); i < 4; i++ {
		base := i * width
		for _, off := range []uint64{0, 1, width - 2, width - 1} {
			key := base + off
			if err := sess.Put(key, 1); err != nil {
				t.Fatal(err)
			}
			want = append(want, key)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint64
	for k := range sess.Range(0, ^uint64(0)) {
		got = append(got, k)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundary walk[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// A window straddling one boundary sees exactly the four keys around it.
	var win []uint64
	for k := range sess.Range(width-2, width+1) {
		win = append(win, k)
	}
	if len(win) != 4 || win[0] != width-2 || win[3] != width+1 {
		t.Fatalf("boundary window = %v", win)
	}
}

// TestClusterRangeEmptyShards: shards with no keys in the window
// contribute nothing and cost nothing — including fully empty shards.
func TestClusterRangeEmptyShards(t *testing.T) {
	c := testCluster(t, 4, RangePartition)
	sess := c.NewSession()
	// All keys land in shard 0's slice; shards 1-3 stay empty.
	for k := uint64(10); k < 30; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for range sess.Range(0, ^uint64(0)) {
		n++
	}
	if n != 20 {
		t.Fatalf("range over mostly-empty cluster yielded %d, want 20", n)
	}
	// A window entirely inside an empty shard yields nothing.
	width := ^uint64(0)/4 + 1
	for k := range sess.Range(width, width+1000) {
		t.Fatalf("empty shard yielded %d", k)
	}
	// Scan agrees and reports the visit count.
	cnt, err := sess.Scan(0, 100, func(k, v uint64) bool { return true })
	if err != nil || cnt != 20 {
		t.Fatalf("Scan = %d,%v, want 20", cnt, err)
	}
	// Scan stops at max and on fn=false.
	cnt, _ = sess.Scan(0, 5, func(k, v uint64) bool { return true })
	if cnt != 5 {
		t.Fatalf("Scan max clamp = %d, want 5", cnt)
	}
	// The key fn stops on is not counted, as on a Thread.
	cnt, _ = sess.Scan(0, 100, func(k, v uint64) bool { return k < 12 })
	if cnt != 2 {
		t.Fatalf("Scan early stop = %d, want 2", cnt)
	}
}

// TestClusterRangeEarlyBreakReleasesIterators: breaking out of a merged
// Range leaves nothing running. The per-shard cursors are plain buffers,
// not iter.Pull coroutines; the goroutine count guards against a merge
// that goes back to something that needs stopping.
func TestClusterRangeEarlyBreakReleasesIterators(t *testing.T) {
	c := testCluster(t, 4, HashPartition)
	sess := c.NewSession()
	for k := uint64(0); k < 400; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		n := 0
		for range sess.Range(0, ^uint64(0)) {
			n++
			if n == 3 {
				break
			}
		}
	}
	// Allow the scheduler a moment before calling a stray goroutine a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > %d before 50 broken ranges: per-shard iterators leaked", g, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRangeConcurrentInserts: a merged range racing concurrent
// writers on every shard must stay strictly increasing and duplicate-free
// (per-key snapshot semantics — which concurrent keys appear is
// unspecified, but order and uniqueness are not).
func TestClusterRangeConcurrentInserts(t *testing.T) {
	c := testCluster(t, 3, HashPartition)
	reader := c.NewSession()
	for k := uint64(0); k < 1000; k += 2 {
		if err := reader.Put(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.NewSession()
			for k := uint64(w*1000 + 1); !stopFlag.Load(); k += 2 {
				if err := sess.Put(k%1000, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 30; round++ {
		prev, have := uint64(0), false
		n := 0
		for k := range reader.Range(0, 999) {
			if have && k <= prev {
				t.Fatalf("round %d: %d after %d under concurrent inserts", round, k, prev)
			}
			prev, have = k, true
			n++
		}
		if n < 500 {
			t.Fatalf("round %d: preloaded keys missing from range (%d < 500)", round, n)
		}
	}
	stopFlag.Store(true)
	wg.Wait()
}
