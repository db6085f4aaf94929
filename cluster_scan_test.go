package eunomia

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"eunomia/internal/shard"
)

// scanLayouts are the key placements the merge-scan tests run over: dense
// on every shard, a handful of keys leaving most hash shards empty, keys
// that all hash to one shard of four (its cursor starts at a quarter share
// and has to refill, doubling, all the way up), and a range partition whose
// odd shards own nothing.
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
	{"hash-one-shard", 4, HashPartition, func(rng *rand.Rand) []uint64 {
		r := shard.New(4, shard.Hash)
		keys := make([]uint64, 0, 1500)
		for len(keys) < cap(keys) {
			if k := rng.Uint64() >> 44; r.Route(k) == 2 {
				keys = append(keys, k)
			}
		}
		return keys
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

// scanLimits lie on both sides of every page boundary a merge can produce:
// the share-sized first page (firstPage) and its doublings on a hash
// cluster, the caller's limit and its doublings on a range cluster, and the
// clusterRangeBatch cap.
var scanLimits = []int{1, 2, 3, 5, 15, 16, 17, 64, 255, 256, 257, 1000}

// checkScansMatch fails the test unless sess.Scan(from, max) visits exactly
// what the single DB behind ref visits, for every from and every scanLimit.
func checkScansMatch(t *testing.T, sess *Session, ref *Thread, froms []uint64) {
	t.Helper()
	collect := func(dst *[]kvPair) func(k, v uint64) bool {
		*dst = (*dst)[:0]
		return func(k, v uint64) bool {
			*dst = append(*dst, kvPair{k, v})
			return true
		}
	}
	var got, want []kvPair
	for _, max := range scanLimits {
		for _, from := range froms {
			wn, _ := ref.Scan(from, max, collect(&want))
			gn, err := sess.Scan(from, max, collect(&got))
			if err != nil {
				t.Fatalf("Scan(%d,%d): %v", from, max, err)
			}
			if gn != wn || !slices.Equal(got, want) {
				t.Fatalf("Scan(%d,%d) = %d keys %v, single DB gives %d keys %v", from, max, gn, got, wn, want)
			}
		}
	}
}

// scanReference puts keys (value k^9) into the cluster through sess and into
// a single DB, and returns a thread on that DB to compare scans against.
func scanReference(t *testing.T, sess *Session, keys []uint64) *Thread {
	t.Helper()
	ref, err := Open(Options{ArenaWords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	rth := ref.NewThread()
	for _, k := range keys {
		if err := sess.Put(k, k^9); err != nil {
			t.Fatal(err)
		}
		rth.Put(k, k^9)
	}
	return rth
}

// scanFroms are scan starts around keys: both ends of the key space, the
// first key and its successor, and a few keys and near misses below them.
func scanFroms(rng *rand.Rand, keys []uint64) []uint64 {
	froms := []uint64{0, keys[0], keys[0] + 1, ^uint64(0)}
	for i := 0; i < 6; i++ {
		froms = append(froms, keys[rng.Intn(len(keys))]-uint64(rng.Intn(3)))
	}
	return froms
}

// TestClusterScanMatchesSingleDB: whatever the page sizes, the merged scan
// of a cluster is the scan of one DB holding the same keys — same keys,
// same values, same count.
func TestClusterScanMatchesSingleDB(t *testing.T) {
	for _, lay := range scanLayouts {
		t.Run(lay.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			c := testCluster(t, lay.shards, lay.part)
			sess := c.NewSession()
			keys := lay.keys(rng)
			rth := scanReference(t, sess, keys)
			froms := scanFroms(rng, keys)
			checkScansMatch(t, sess, rth, froms)
			var got, want []kvPair
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

// TestClusterScanMatchesSingleDBMidCutover: share-sized pages under the
// frozen view's ownership filter. A 2→3 hash split is staged with one move
// cut over but not purged (the source's pages are part stale), one copied
// but not cut (the destination's pages are all foreign), and the rest
// pending (a destination with nothing of its own yet); every limit must
// still read exactly what one DB reads — also when the next move is cut
// over under a running scan, which keeps the view it froze.
func TestClusterScanMatchesSingleDBMidCutover(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := testCluster(t, 2, HashPartition)
	sess := c.NewSession()
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64() >> 44
	}
	rth := scanReference(t, sess, keys)
	m, v := stageSplit(t, c, 3)
	defer c.mig.Store(nil) // no engine was started; Close must not wait for one
	for mi := 0; mi < 2; mi++ {
		if stageCopy(t, c, v, mi, keys) < 2*clusterRangeFirst {
			t.Fatalf("move %d carries too few keys to fill a page", mi)
		}
	}
	stageCut(c, m, 0)
	froms := scanFroms(rng, keys)
	checkScansMatch(t, sess, rth, froms)

	var want, got []kvPair
	rth.Scan(0, 1000, func(k, val uint64) bool {
		want = append(want, kvPair{k, val})
		return true
	})
	n, err := sess.Scan(0, 1000, func(k, val uint64) bool {
		if len(got) == 3 {
			stageCut(c, m, 1)
		}
		got = append(got, kvPair{k, val})
		return true
	})
	if err != nil || n != len(want) || !slices.Equal(got, want) {
		t.Fatalf("Scan(0,1000) with a cutover after its third key = %d keys, %v; single DB gives %d", n, err, len(want))
	}
	checkScansMatch(t, sess, rth, froms)
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

// hostScanCluster is a preloaded 4-shard hash cluster with a Session whose
// cursors and per-shard threads are warm; o, if not nil, observes every
// shard.
func hostScanCluster(t *testing.T, o Observer) (*Cluster, *Session) {
	t.Helper()
	c, err := OpenCluster(ClusterOptions{Shards: 4, Shard: Options{ArenaWords: 1 << 20,
		Observability: Observability{Observer: o}}})
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

// descentCounter counts upper regions: the transactions a thread begins
// with no leaf annotated, which a lower region always has.
type descentCounter struct{ n atomic.Uint64 }

func (d *descentCounter) Event(e Event) {
	if e.Kind == EvTxBegin && e.Node == 0 {
		d.n.Add(1)
	}
}

// scanWork is the transactional work a scan costs: attempts, Tx loads, and
// how many of the attempts were upper regions.
type scanWork struct{ attempts, loads, descents uint64 }

func (w scanWork) plus(o scanWork) scanWork {
	return scanWork{w.attempts + o.attempts, w.loads + o.loads, w.descents + o.descents}
}

// TestClusterScanWorkBound: on a 4-shard hash cluster a Scan(from,16) asks
// each shard for its share (firstPage), so it costs what four share-sized
// shard scans cost plus at most one refill — share + slack is half of 16, so
// a second cursor cannot run dry before the 16th key is out — and over any
// run of scans strictly fewer Tx loads than asking every shard for all 16.
// Attempts cannot tell the two apart since a shard scan walks its leaves in
// one region: each page the merge asks for, first or refill, is exactly one
// attempt when the shard's leaf directory holds the leaf the page starts in
// and two (the upper region, then the lower) when it does not, and that is
// what the test pins, counting the upper regions with an observer; the
// bound above is on lower regions and on loads. Each scan runs twice, cold
// and then warm, measured against the shard scans. One goroutine on a
// Session, so every attempt commits and the counts are exact.
func TestClusterScanWorkBound(t *testing.T) {
	var descents descentCounter
	c, sess := hostScanCluster(t, &descents)
	total := func() (w scanWork) {
		for _, th := range sess.threads {
			w = w.plus(scanWork{th.th.Stats.Attempts, th.th.Stats.TxLoads, 0})
		}
		w.descents = descents.n.Load()
		return w
	}
	measure := func(fn func()) scanWork {
		before := total()
		fn()
		after := total()
		return scanWork{after.attempts - before.attempts, after.loads - before.loads, after.descents - before.descents}
	}
	visit := func(_, _ uint64) bool { return true }
	share := firstPage(c.table.View(), 16)
	if share != 16/4+clusterShareSlack || 2*share < 16 {
		t.Fatalf("firstPage(16) on 4 hash shards = %d; the one-refill bound below needs 16/4+slack >= 8", share)
	}
	type row struct {
		from        uint64
		used, asked scanWork
	}
	var rows []row
	var coldSum, usedSum, fullSum, refill scanWork
	var coldPages, usedPages uint64
	for i := uint64(0); i < 200; i++ {
		from := i * 2654435761 % 40_000
		scan := func() {
			if n, err := sess.Scan(from, 16, visit); n != 16 || err != nil {
				t.Fatalf("Scan(%d,16) = %d, %v", from, n, err)
			}
		}
		r := row{from: from}
		pages := sess.pages
		coldSum = coldSum.plus(measure(scan))
		coldPages += sess.pages - pages
		pages = sess.pages
		r.used = measure(scan)
		usedPages += sess.pages - pages
		for s := 0; s < c.Shards(); s++ {
			th := sess.threads[s]
			r.asked = r.asked.plus(measure(func() { th.Scan(from, share, visit) }))
			// A refill is one Thread.Scan of 2*share = 16 keys: the dearest
			// such scan seen on any shard bounds what one costs.
			full := measure(func() { th.Scan(from, 16, visit) })
			fullSum = fullSum.plus(full)
			refill.attempts = max(refill.attempts, full.attempts)
			refill.loads = max(refill.loads, full.loads)
		}
		usedSum = usedSum.plus(r.used)
		rows = append(rows, r)
	}
	for _, r := range rows {
		// A bucket that two of the scan's pages on one shard share holds
		// only one's leaf, so the merge may descend where the shard scans
		// did not: each such upper region is allowed a refill's loads.
		extra := max(r.used.descents, r.asked.descents) - r.asked.descents
		bound := r.asked.plus(refill)
		bound.loads += extra * refill.loads
		if r.used.attempts-r.used.descents > bound.attempts-r.asked.descents || r.used.loads > bound.loads {
			t.Fatalf("Scan(%d,16) cost %+v; four Scan(from,%d) on the shards cost %+v and one refill at most %+v",
				r.from, r.used, share, r.asked, refill)
		}
	}
	if usedSum.loads >= fullSum.loads {
		t.Fatalf("200 Scan(from,16) cost %+v; asking every shard for all 16 costs %+v: want strictly fewer loads", usedSum, fullSum)
	}
	for _, c := range []struct {
		name  string
		pages uint64
		work  scanWork
	}{{"cold", coldPages, coldSum}, {"warm", usedPages, usedSum}, {"full-limit shard", 200 * uint64(c.Shards()), fullSum}} {
		if c.work.attempts != c.pages+c.work.descents || c.work.descents > c.pages {
			t.Fatalf("%s scans asked for %d pages in %d attempts, %d of them upper regions: want one lower region per page and at most one upper",
				c.name, c.pages, c.work.attempts, c.work.descents)
		}
	}
	if coldSum.descents == 0 || usedSum.descents >= coldSum.descents {
		t.Fatalf("the cold scans descended for %d pages and the same scans warm for %d; want fewer warm, and some cold", coldSum.descents, usedSum.descents)
	}
	if refills := usedPages - 200*uint64(c.Shards()); refills > 200*15/100 {
		t.Fatalf("%d of 200 scans refilled a cursor; clusterShareSlack is sized to keep that under 15%%", refills)
	}
	t.Logf("200 scans: %+v (cold %+v, %d of %d pages descending) against %+v for four full-limit shard scans each",
		usedSum, coldSum, coldSum.descents, coldPages, fullSum)
}

// TestClusterScanAllocs: a warm Session scans without allocating — the
// cursors, their page buffers and their callbacks are the Session's, the
// head keys live on the merge's stack, and the registration is a word.
func TestClusterScanAllocs(t *testing.T) {
	_, sess := hostScanCluster(t, nil)
	visit := func(_, _ uint64) bool { return true }
	from := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := sess.Scan(from%40_000, 16, visit); n != 16 || err != nil {
			t.Fatalf("Scan = %d, %v", n, err)
		}
		from += 2654435761
	})
	if allocs != 0 {
		t.Fatalf("Session.Scan allocates %.1f times per call, want 0", allocs)
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
