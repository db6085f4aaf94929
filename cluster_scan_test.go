package eunomia

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scanLayouts are the key placements the merge-scan tests run over: dense
// on every shard, a handful of keys leaving most hash shards empty, and a
// range partition whose odd shards own nothing.
var scanLayouts = []struct {
	name   string
	shards int
	part   Partition
	keys   func(rng *rand.Rand) []uint64
}{
	{"hash", 4, HashPartition, func(rng *rand.Rand) []uint64 {
		keys := make([]uint64, 3000)
		for i := range keys {
			keys[i] = rng.Uint64() >> 44
		}
		return keys
	}},
	{"hash-sparse", 8, HashPartition, func(rng *rand.Rand) []uint64 {
		return []uint64{3, 1 << 20, 1<<20 + 1, 1 << 40, ^uint64(0)}
	}},
	{"range-empty-shards", 4, RangePartition, func(rng *rand.Rand) []uint64 {
		width := ^uint64(0)/4 + 1
		keys := make([]uint64, 3000)
		for i := range keys {
			keys[i] = uint64(i%2)*2*width + rng.Uint64()>>44 // shards 0 and 2 only
		}
		return keys
	}},
}

// TestClusterScanMatchesSingleDB: whatever the page sizes, the merged scan
// of a cluster is the scan of one DB holding the same keys — same keys,
// same values, same count — for limits on both sides of every page
// boundary the ramp (max, 2·max, … 256) can produce.
func TestClusterScanMatchesSingleDB(t *testing.T) {
	for _, lay := range scanLayouts {
		t.Run(lay.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			c := testCluster(t, lay.shards, lay.part)
			sess := c.NewSession()
			ref, err := Open(Options{ArenaWords: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			rth := ref.NewThread()
			keys := lay.keys(rng)
			for _, k := range keys {
				if err := sess.Put(k, k^9); err != nil {
					t.Fatal(err)
				}
				rth.Put(k, k^9)
			}
			froms := []uint64{0, keys[0], keys[0] + 1, ^uint64(0)}
			for i := 0; i < 6; i++ {
				froms = append(froms, keys[rng.Intn(len(keys))]-uint64(rng.Intn(3)))
			}
			collect := func(dst *[]kvPair) func(k, v uint64) bool {
				*dst = (*dst)[:0]
				return func(k, v uint64) bool {
					*dst = append(*dst, kvPair{k, v})
					return true
				}
			}
			var got, want []kvPair
			for _, max := range []int{1, 2, 15, 16, 17, 255, 256, 257, 1000} {
				for _, from := range froms {
					wn, _ := rth.Scan(from, max, collect(&want))
					gn, err := sess.Scan(from, max, collect(&got))
					if err != nil {
						t.Fatalf("Scan(%d,%d): %v", from, max, err)
					}
					if gn != wn || !slices.Equal(got, want) {
						t.Fatalf("Scan(%d,%d) = %d keys %v, single DB gives %d keys %v", from, max, gn, got, wn, want)
					}
				}
			}
			for i, from := range froms {
				to := from + uint64(rng.Intn(1<<18))<<uint(rng.Intn(40))
				if i == 0 || to < from {
					to = ^uint64(0)
				}
				got, want = got[:0], want[:0]
				for k, v := range rth.Range(from, to) {
					want = append(want, kvPair{k, v})
				}
				for k, v := range sess.Range(from, to) {
					got = append(got, kvPair{k, v})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Range(%d,%d) yields %d keys, single DB %d", from, to, len(got), len(want))
				}
			}
		})
	}
}

// TestClusterScanCompleteBeforeFailure: the merge reads a shard only when
// the consumer wants another key, so a shard that dies after serving the
// last key a Scan asked for cannot turn that Scan into an error. max = 256
// is the case a merge that reads ahead gets wrong: the 256th key empties
// the page and the next read would hit the dead shard.
func TestClusterScanCompleteBeforeFailure(t *testing.T) {
	for _, max := range []int{16, 256} {
		t.Run(fmt.Sprint(max), func(t *testing.T) {
			c, err := OpenCluster(ClusterOptions{
				Shards:    2,
				Partition: RangePartition,
				Shard:     Options{ArenaWords: 1 << 19},
				Health:    HealthOptions{Window: 8, TripFailures: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sess := c.NewSession()
			for k := uint64(0); k < 600; k++ { // all on shard 0
				if err := sess.Put(k, k); err != nil {
					t.Fatal(err)
				}
			}
			n, err := sess.Scan(0, max, func(k, _ uint64) bool {
				if k == 0 {
					c.DB(0).Close() // the serving shard dies under the scan
				}
				return true
			})
			if n != max || err != nil {
				t.Fatalf("Scan(0,%d) = %d, %v; every key was read before the shard died: want %d, nil", max, n, err, max)
			}
			// The same death is reported once the scan needs a page it cannot have.
			if n, err = sess.Scan(0, 600, func(_, _ uint64) bool { return true }); err == nil {
				t.Fatalf("Scan over the dead shard = %d, nil; want the shard's error", n)
			}
		})
	}
}

// hostScanCluster is a preloaded 4-shard hash cluster on the host backend
// with a Session whose cursors and per-shard threads are warm.
func hostScanCluster(t *testing.T) (*Cluster, *Session) {
	t.Helper()
	c, err := OpenCluster(ClusterOptions{Shards: 4, Shard: Options{ArenaWords: 1 << 20, Backend: Host}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess := c.NewSession()
	for _, k := range rand.New(rand.NewSource(3)).Perm(20_000) {
		if err := sess.Put(2*uint64(k), uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	return c, sess
}

// TestClusterScanWorkBound: Scan(from,16) on a 4-shard cluster costs what
// four Scan(from,16) calls on the shards cost — one traversal plus the
// leaves covering 16 keys each — and not a transaction more. One goroutine
// on the host backend, so every attempt commits and the count is exact.
func TestClusterScanWorkBound(t *testing.T) {
	c, sess := hostScanCluster(t)
	attempts := func() uint64 {
		for _, th := range sess.threads {
			th.th.FlushStats() // host threads fold their counters in batches
		}
		return c.Metrics().Tx.Attempts
	}
	visit := func(_, _ uint64) bool { return true }
	// A preloaded leaf holds at least 8 records (a split halves 17), so 16
	// keys lie on at most 3 leaves.
	const perShard = 3 + 1
	for i := uint64(0); i < 200; i++ {
		from := i * 2654435761 % 40_000
		before := attempts()
		if n, err := sess.Scan(from, 16, visit); n != 16 || err != nil {
			t.Fatalf("Scan(%d,16) = %d, %v", from, n, err)
		}
		used := attempts() - before
		var direct uint64
		for s := 0; s < c.Shards(); s++ {
			th := sess.threads[s]
			was := th.th.Stats.Attempts
			th.Scan(from, 16, visit)
			direct += th.th.Stats.Attempts - was
		}
		if used > direct || used > uint64(c.Shards())*perShard {
			t.Fatalf("Scan(%d,16) made %d transaction attempts; the four shard scans make %d, bound %d",
				from, used, direct, c.Shards()*perShard)
		}
	}
}

// TestClusterScanAllocs: a warm Session scans without allocating — the
// cursors, their page buffers and their callbacks are the Session's.
func TestClusterScanAllocs(t *testing.T) {
	_, sess := hostScanCluster(t)
	visit := func(_, _ uint64) bool { return true }
	from := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := sess.Scan(from%40_000, 16, visit); n != 16 || err != nil {
			t.Fatalf("Scan = %d, %v", n, err)
		}
		from += 2654435761
	})
	if allocs > 2 {
		t.Fatalf("Session.Scan allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestClusterScanNested: the cursors are borrowed for the length of a
// merge, so a Scan started from inside a Range on the same Session leaves
// the outer stream intact.
func TestClusterScanNested(t *testing.T) {
	c := testCluster(t, 3, HashPartition)
	sess := c.NewSession()
	for k := uint64(0); k < 300; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(0)
	for k := range sess.Range(0, ^uint64(0)) {
		if k != next {
			t.Fatalf("outer range yielded %d, want %d", k, next)
		}
		next++
		n, err := sess.Scan(k, 5, func(ik, _ uint64) bool { return ik >= k })
		if want := min(5, 300-int(k)); n != want || err != nil {
			t.Fatalf("nested Scan(%d,5) = %d, %v; want %d", k, n, err, want)
		}
	}
	if next != 300 {
		t.Fatalf("outer range yielded %d keys, want 300", next)
	}
}
