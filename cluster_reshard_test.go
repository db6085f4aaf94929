package eunomia

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eunomia/internal/durable"
	"eunomia/internal/shard"
)

// durableReshardOpts builds options for a durable cluster over one shared
// MemFS (shard dirs + cluster manifests all on the same disk).
func durableReshardOpts(fs *durable.MemFS, n int, part Partition) ClusterOptions {
	return ClusterOptions{
		Shards:    n,
		Partition: part,
		Shard: Options{
			ArenaWords: 1 << 19,
			Durability: Durability{Dir: "clusterdb", FS: fs},
		},
	}
}

// TestReshardSplitLive: a 2→4 split under a live writer. Every key —
// written before and during the migration — survives on its new owner,
// the epoch advances, and a reopen with Shards:0 adopts the grown
// topology.
func TestReshardSplitLive(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	c, err := OpenCluster(durableReshardOpts(fs, 2, RangePartition))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession()
	const preKeys = 400
	for k := uint64(0); k < preKeys; k++ {
		if err := sess.Put(k*(1<<55), k); err != nil {
			t.Fatal(err)
		}
	}
	// Writer racing the migration: keys interleaved with the preloaded
	// set, spread across the whole space so every move sees traffic.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	live := map[uint64]uint64{} // final acked value per live-written key
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws := c.NewSession()
		for k := uint64(0); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			key := (k%512)*(1<<55) + 1
			if err := ws.Put(key, k); err != nil {
				t.Errorf("live write %d: %v", k, err)
				return
			}
			live[key] = k
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := c.Reshard(4); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := c.Shards(); got != 4 {
		t.Fatalf("post-split Shards() = %d", got)
	}
	if got := c.Epoch(); got != 1 {
		t.Fatalf("post-split Epoch() = %d", got)
	}
	if c.Migrating() {
		t.Fatal("still migrating after Reshard returned")
	}
	verify := func(sess *Session, c *Cluster) {
		for k := uint64(0); k < preKeys; k++ {
			v, ok, err := sess.Get(k * (1 << 55))
			if err != nil || !ok || v != k {
				t.Fatalf("pre-split key %d: %d,%v,%v", k, v, ok, err)
			}
		}
		for key, want := range live {
			v, ok, err := sess.Get(key)
			if err != nil || !ok || v != want {
				t.Fatalf("live key %d: got %d,%v,%v want %d", key, v, ok, err, want)
			}
		}
		// Partitioning invariant: each key physically lives only on its
		// owning shard (stale source copies must have been purged).
		ths := make([]*Thread, c.Shards())
		for i := range ths {
			ths[i] = c.DB(i).NewThread()
		}
		for k := uint64(0); k < preKeys; k++ {
			key := k * (1 << 55)
			owner := c.ShardFor(key)
			for i, th := range ths {
				_, ok, err := th.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if ok && i != owner {
					t.Fatalf("key %d: stale copy on shard %d (owner %d)", key, i, owner)
				}
				if !ok && i == owner {
					t.Fatalf("key %d: missing from owner %d", key, owner)
				}
			}
		}
	}
	verify(sess, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen adopting the stored topology.
	o := durableReshardOpts(fs, 0, RangePartition)
	c2, err := OpenCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Shards() != 4 || c2.Epoch() != 1 {
		t.Fatalf("reopen: shards=%d epoch=%d", c2.Shards(), c2.Epoch())
	}
	verify(c2.NewSession(), c2)
}

// TestReshardMerge: 4→2 online merge; the retired slots' data lands on
// the survivors and their directories are wiped.
func TestReshardMerge(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	c, err := OpenCluster(durableReshardOpts(fs, 4, HashPartition))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession()
	for k := uint64(1); k <= 500; k++ {
		if err := sess.Put(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Reshard(2); err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 2 || c.Epoch() != 1 {
		t.Fatalf("post-merge shards=%d epoch=%d", c.Shards(), c.Epoch())
	}
	for k := uint64(1); k <= 500; k++ {
		v, ok, err := sess.Get(k)
		if err != nil || !ok || v != k*7 {
			t.Fatalf("post-merge key %d: %d,%v,%v", k, v, ok, err)
		}
	}
	n := 0
	for range sess.Range(0, ^uint64(0)) {
		n++
	}
	if n != 500 {
		t.Fatalf("post-merge range saw %d keys, want 500", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCluster(durableReshardOpts(fs, 0, HashPartition))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Shards() != 2 {
		t.Fatalf("reopen shards=%d", c2.Shards())
	}
	s2 := c2.NewSession()
	for k := uint64(1); k <= 500; k++ {
		v, ok, err := s2.Get(k)
		if err != nil || !ok || v != k*7 {
			t.Fatalf("reopened key %d: %d,%v,%v", k, v, ok, err)
		}
	}
}

// TestReshardTopologyMismatchTyped: reopening a resharded store with a
// contradicting explicit shard count fails with the typed error carrying
// both sides — not the old hard refusal string.
func TestReshardTopologyMismatchTyped(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	c, err := OpenCluster(durableReshardOpts(fs, 2, HashPartition))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession()
	for k := uint64(1); k <= 50; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Reshard(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenCluster(durableReshardOpts(fs, 5, HashPartition))
	if !errors.Is(err, ErrTopologyMismatch) {
		t.Fatalf("want ErrTopologyMismatch, got %v", err)
	}
	var tm *TopologyMismatchError
	if !errors.As(err, &tm) {
		t.Fatalf("want *TopologyMismatchError, got %T: %v", err, err)
	}
	if tm.StoredShards != 3 || tm.CurrentShards != 5 || tm.StoredEpoch != 1 {
		t.Fatalf("mismatch detail: %+v", *tm)
	}
	// The matching explicit count and the adopt form both still open.
	for _, n := range []int{3, 0} {
		c2, err := OpenCluster(durableReshardOpts(fs, n, HashPartition))
		if err != nil {
			t.Fatalf("Shards:%d reopen: %v", n, err)
		}
		if c2.Shards() != 3 {
			t.Fatalf("Shards:%d reopen got %d shards", n, c2.Shards())
		}
		c2.Close()
	}
}

// stageSplit installs a migration of c to n shards the way Reshard does —
// destination shards opened, migration registered, routing view begun — but
// starts no engine: the test decides which moves are copied (stageCopy) and
// cut over (stageCut), and must clear c.mig before Close.
func stageSplit(t *testing.T, c *Cluster, n int) (*migration, *shard.View) {
	t.Helper()
	from := c.table.View().Target()
	to := shard.New(n, from.Partition())
	list := c.shardList()
	grown := make([]*clusterShard, len(list), n)
	copy(grown, list)
	for i := len(list); i < n; i++ {
		db, err := Open(c.opts.Shard)
		if err != nil {
			t.Fatal(err)
		}
		sh := &clusterShard{idx: i, opts: c.opts.Shard, health: shard.NewHealth(c.healthCfg)}
		sh.db.Store(db)
		grown = append(grown, sh)
	}
	c.shards.Store(&grown)
	m := newMigration(from, to, 0, 0)
	c.mig.Store(m)
	return m, c.table.BeginReshard(to, 0)
}

// stageCopy copies move mi's keys to its destination and leaves the
// source's copies in place, returning how many keys the move carried.
func stageCopy(t *testing.T, c *Cluster, v *shard.View, mi int, keys []uint64) int {
	t.Helper()
	mv := v.Moves()[mi]
	sth, dth := c.DB(mv.Src).NewThread(), c.DB(mv.Dst).NewThread()
	copied := 0
	for _, k := range keys {
		if i, ok := v.MoveOf(k); !ok || i != mi {
			continue
		}
		val, ok, err := sth.Get(k)
		if err != nil || !ok {
			t.Fatalf("move %d key %d unreadable on src: %v %v", mi, k, ok, err)
		}
		if err := dth.Put(k, val); err != nil {
			t.Fatal(err)
		}
		copied++
	}
	return copied
}

// stageCut flips move mi's authority to its destination, purging nothing.
func stageCut(c *Cluster, m *migration, mi int) {
	m.fence.Lock()
	c.table.CutOver(mi)
	m.cut = mi + 1
	m.fence.Unlock()
}

// TestReshardScanExactlyOnceMidMigration is the white-box straddling-scan
// test: with an interval physically present on BOTH its source and its
// destination (copied, cut over, not yet purged — and separately, copied
// but NOT cut over), a merged range over the boundary returns every key
// exactly once.
func TestReshardScanExactlyOnceMidMigration(t *testing.T) {
	c := testCluster(t, 2, RangePartition)
	sess := c.NewSession()
	const n = 200
	keys := make([]uint64, 0, n)
	for k := 0; k < n; k++ {
		key := uint64(k) * (1 << 56) // spread across the whole space
		keys = append(keys, key)
		if err := sess.Put(key, key^5); err != nil {
			t.Fatal(err)
		}
	}
	// Stage a 2→4 migration by hand, so the test controls exactly which
	// state the scan observes.
	m, v := stageSplit(t, c, 4)
	if len(v.Moves()) == 0 {
		t.Fatal("no moves for 2->4 range split")
	}

	// Physically copy move 0 to its destination WITHOUT cutting over:
	// both copies exist; the scan must take the source's.
	if stageCopy(t, c, v, 0, keys) == 0 {
		t.Fatal("move 0 carried no test keys")
	}
	checkExactlyOnce := func(stage string) {
		seen := map[uint64]int{}
		for k, val := range sess.Range(0, ^uint64(0)) {
			seen[k]++
			if val != k^5 {
				t.Fatalf("%s: key %d carries %d", stage, k, val)
			}
		}
		for _, k := range keys {
			if seen[k] != 1 {
				t.Fatalf("%s: key %d seen %d times", stage, k, seen[k])
			}
		}
		if len(seen) != n {
			t.Fatalf("%s: %d keys scanned, want %d", stage, len(seen), n)
		}
	}
	checkExactlyOnce("copied-not-cut")

	// Cut move 0 over (authority flips to Dst) but do NOT purge: the
	// stale source copies are still physically present.
	stageCut(c, m, 0)
	checkExactlyOnce("cut-not-purged")

	// A scan frozen before a cutover keeps its own routing for the whole
	// iteration: start iterating, cut another move mid-scan, finish — the
	// stream stays exactly-once because the frozen view filters every
	// cursor consistently.
	if len(v.Moves()) > 1 {
		seen := map[uint64]int{}
		i := 0
		for k := range sess.Range(0, ^uint64(0)) {
			seen[k]++
			if i == n/3 {
				stageCut(c, m, 1)
			}
			i++
		}
		for _, k := range keys {
			if seen[k] != 1 {
				t.Fatalf("mid-scan cutover: key %d seen %d times", k, seen[k])
			}
		}
	}
	// A page of nothing but stale copies is not the end of a shard. Finish
	// move 1 the way the engine would (the stage above cut it over in the
	// table only): copy its keys to the destination and leave the source
	// unpurged. Then delete the interval's last key at its new owner. The
	// source now holds a stale copy of that key and, right behind it, the
	// keys of move 2 — which it still owns.
	if len(v.Moves()) > 2 {
		mv1 := v.Moves()[1]
		s1, d1 := c.DB(mv1.Src).NewThread(), c.DB(mv1.Dst).NewThread()
		var moved, rest []uint64
		for _, k := range keys {
			switch {
			case k >= mv1.Lo && k <= mv1.Hi:
				val, _, _ := s1.Get(k)
				if err := d1.Put(k, val); err != nil {
					t.Fatal(err)
				}
				moved = append(moved, k)
			case k > mv1.Hi:
				rest = append(rest, k)
			}
		}
		if len(moved) < 2*clusterRangeFirst || len(rest) == 0 {
			t.Fatalf("move 1 carries %d keys with %d behind it: too few for the case", len(moved), len(rest))
		}
		gone := moved[len(moved)-1]
		if ok, err := sess.Delete(gone); !ok || err != nil {
			t.Fatalf("delete of moved key %d = %v, %v", gone, ok, err)
		}
		moved = moved[:len(moved)-1]
		// Scan(gone, 1) asks the source for one raw key and gets the stale
		// copy; the key it wants is the source's next one.
		var got []uint64
		n, err := sess.Scan(gone, 1, func(k, val uint64) bool {
			got = append(got, k)
			return val == k^5
		})
		if n != 1 || err != nil || got[0] != rest[0] {
			t.Fatalf("Scan(%d,1) past a stale first page = %d, %v visiting %v; want key %d", gone, n, err, got, rest[0])
		}
		// From the interval's start the source's first pages — 16, 32 raw
		// keys — are stale throughout, and its own keys come after them.
		got = got[:0]
		for k, val := range sess.Range(moved[0], ^uint64(0)) {
			if val != k^5 {
				t.Fatalf("stale pages: key %d carries %d", k, val)
			}
			got = append(got, k)
		}
		if want := append(moved, rest...); !slices.Equal(got, want) {
			t.Fatalf("range over stale pages yields %d keys, want %d (%d moved, %d behind them)", len(got), len(want), len(moved), len(rest))
		}
	}
	// Leave the staged migration in place; Close tolerates it (no engine
	// goroutine was started).
	c.mig.Store(nil)
}

// TestReshardArgErrors: bad targets and concurrent reshard attempts are
// rejected with the right sentinels.
func TestReshardArgErrors(t *testing.T) {
	c := testCluster(t, 2, HashPartition)
	if err := c.Reshard(0); err == nil {
		t.Fatal("Reshard(0) accepted")
	}
	if err := c.Reshard(65); err == nil {
		t.Fatal("Reshard(65) accepted")
	}
	if err := c.Reshard(2); err != nil {
		t.Fatalf("no-op reshard: %v", err)
	}
	sess := c.NewSession()
	for k := uint64(0); k < 2000; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var once sync.Once
	var second error
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Reshard(4)
			if errs[i] != nil {
				once.Do(func() { second = errs[i] })
			}
		}(i)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		// Both succeeding is possible only if they serialized cleanly —
		// but the second must then have been a no-op arriving after the
		// first finished, which Reshard(4)==4-shards reports as nil. Fine.
		if c.Shards() != 4 {
			t.Fatalf("shards=%d after concurrent reshards", c.Shards())
		}
		return
	}
	if second != nil && !errors.Is(second, ErrReshardInProgress) {
		t.Fatalf("concurrent reshard error = %v, want ErrReshardInProgress", second)
	}
	if c.Shards() != 4 {
		t.Fatalf("shards=%d, want 4", c.Shards())
	}
	for k := uint64(0); k < 2000; k++ {
		v, ok, err := sess.Get(k)
		if err != nil || !ok || v != k {
			t.Fatalf("key %d after racing reshards: %d,%v,%v", k, v, ok, err)
		}
	}
}

// TestReshardQuiescesInFlightOps is the deterministic regression test for
// the migration-start grace period: an operation that routed under the
// stable pre-migration view takes the fenceless fast path, so one delayed
// between routing and its tree write could land on the source after its
// interval was copied, drained, and cut over — an acknowledged write the
// new owner never sees. Holding a Session's guard read-side is exactly
// the state such a delayed op is in; the engine must not move a byte
// until it releases, and the write it then performs on the old owner must
// survive the migration.
func TestReshardQuiescesInFlightOps(t *testing.T) {
	c := testCluster(t, 1, RangePartition)
	sess := c.NewSession()
	for k := uint64(0); k < 64; k++ {
		if err := sess.Put(k*(1<<58), k); err != nil {
			t.Fatal(err)
		}
	}
	held := c.NewSession()
	held.guard.RLock()
	done := make(chan error, 1)
	go func() { done <- c.Reshard(2) }()
	deadline := time.Now().Add(10 * time.Second)
	for !c.Migrating() {
		if time.Now().After(deadline) {
			held.guard.RUnlock()
			t.Fatal("migration view never installed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The routing swap has landed but the engine is parked in the grace
	// period: the destination slot must still be empty.
	time.Sleep(20 * time.Millisecond)
	if n, err := c.DB(1).NewThread().Scan(0, 1, func(uint64, uint64) bool { return true }); err != nil || n != 0 {
		held.guard.RUnlock()
		t.Fatalf("engine copied during the grace period: n=%d err=%v", n, err)
	}
	// The delayed op's write lands on the pre-migration owner — the exact
	// interleaving that lost acknowledged writes without the quiesce.
	const movedKey = uint64(3)<<62 + 1 // upper half: moves shard 0 -> 1
	if err := c.DB(0).NewThread().Put(movedKey, 12345); err != nil {
		held.guard.RUnlock()
		t.Fatal(err)
	}
	held.guard.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.ShardFor(movedKey) != 1 {
		t.Fatalf("movedKey owned by shard %d, want 1", c.ShardFor(movedKey))
	}
	v, ok, err := sess.Get(movedKey)
	if err != nil || !ok || v != 12345 {
		t.Fatalf("delayed pre-migration write lost: %d,%v,%v", v, ok, err)
	}
	for k := uint64(0); k < 64; k++ {
		v, ok, err := sess.Get(k * (1 << 58))
		if err != nil || !ok || v != k {
			t.Fatalf("key %d after quiesced split: %d,%v,%v", k, v, ok, err)
		}
	}
}

// denyFS wraps a durable.FS and fails Create for paths containing deny —
// the hook for failing exactly the reshard manifest's tmp file.
type denyFS struct {
	durable.FS
	mu   sync.Mutex
	deny string
}

func (f *denyFS) setDeny(s string) {
	f.mu.Lock()
	f.deny = s
	f.mu.Unlock()
}

func (f *denyFS) Create(name string) (durable.File, error) {
	f.mu.Lock()
	deny := f.deny
	f.mu.Unlock()
	if deny != "" && strings.Contains(name, deny) {
		return nil, errors.New("denyFS: injected create failure")
	}
	return f.FS.Create(name)
}

// TestReshardManifestFailureKeepsServingTopology: when the migration
// manifest cannot be journaled, the failed Reshard must leave no trace —
// Shards()/Metrics keep reporting the topology that actually serves, the
// speculatively opened destination slots are closed (so a later retry can
// wipe and reopen their directories), and the retry succeeds once the
// disk recovers.
func TestReshardManifestFailureKeepsServingTopology(t *testing.T) {
	mem := durable.NewMemFS(durable.FaultPlan{})
	ffs := &denyFS{FS: mem}
	o := durableReshardOpts(mem, 2, RangePartition)
	o.Shard.Durability.FS = ffs
	c, err := OpenCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := c.NewSession()
	for k := uint64(0); k < 100; k++ {
		if err := sess.Put(k*(1<<57), k); err != nil {
			t.Fatal(err)
		}
	}
	ffs.setDeny("cluster-reshard")
	if err := c.Reshard(4); err == nil {
		t.Fatal("Reshard succeeded despite manifest failure")
	}
	if got := c.Shards(); got != 2 {
		t.Fatalf("Shards() = %d after failed reshard, want 2 (serving topology)", got)
	}
	if c.Migrating() {
		t.Fatal("Migrating() after failed reshard")
	}
	m := c.ClusterMetrics()
	if m.Shards != 2 || m.Topology.Shards != 2 || len(m.PerShard) != 2 {
		t.Fatalf("metrics report phantom slots: Shards=%d Topology.Shards=%d PerShard=%d",
			m.Shards, m.Topology.Shards, len(m.PerShard))
	}
	for k := uint64(0); k < 100; k++ {
		v, ok, err := sess.Get(k * (1 << 57))
		if err != nil || !ok || v != k {
			t.Fatalf("key %d after failed reshard: %d,%v,%v", k, v, ok, err)
		}
	}
	// Disk recovers: the retry re-wipes and reopens the destination slots
	// (which must have been closed by the rollback) and completes.
	ffs.setDeny("")
	if err := c.Reshard(4); err != nil {
		t.Fatalf("retry after manifest failure: %v", err)
	}
	if c.Shards() != 4 || c.Epoch() != 1 {
		t.Fatalf("retry topology: shards=%d epoch=%d", c.Shards(), c.Epoch())
	}
	for k := uint64(0); k < 100; k++ {
		v, ok, err := sess.Get(k * (1 << 57))
		if err != nil || !ok || v != k {
			t.Fatalf("key %d after retried reshard: %d,%v,%v", k, v, ok, err)
		}
	}
}

// TestReshardCloseRace: Close racing a just-started Reshard must neither
// trip the WaitGroup's Add-vs-Wait misuse nor leave goroutines behind —
// every interleaving ends in ErrClosed, ErrReshardInProgress, or a clean
// completion.
func TestReshardCloseRace(t *testing.T) {
	for i := 0; i < 25; i++ {
		c, err := OpenCluster(ClusterOptions{
			Shards:    2,
			Partition: RangePartition,
			Shard:     Options{ArenaWords: 1 << 19},
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := c.NewSession()
		for k := uint64(0); k < 32; k++ {
			if err := sess.Put(k*(1<<58), k); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() { done <- c.Reshard(3) }()
		time.Sleep(time.Duration(i%5) * 20 * time.Microsecond)
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", i, err)
		}
		if err := <-done; err != nil &&
			!errors.Is(err, ErrClosed) && !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("iter %d: reshard: %v", i, err)
		}
	}
}

// TestReshardCrashResume: kill the whole cluster (every disk) at seeded
// IO points during a durable split; every reopen must either resume and
// finish the migration or leave a consistent stable topology — with no
// acknowledged write lost, across multiple crash-restart cycles. The
// dedicated crashcheck Reshard mode sweeps this densely (including
// per-shard disk kills); this is the root package's smoke version.
func TestReshardCrashResume(t *testing.T) {
	const keys = 120
	preload := func(fs *durable.MemFS) (*Cluster, error) {
		o := durableReshardOpts(fs, 2, RangePartition)
		o.Repair = RepairOptions{Disable: true}
		c, err := OpenCluster(o)
		if err != nil {
			return nil, err
		}
		sess := c.NewSession()
		for k := uint64(0); k < keys; k++ {
			if err := sess.Put(k*(1<<56), k); err != nil {
				c.Close()
				return nil, err
			}
		}
		return c, nil
	}
	// Dry run: measure the IO window the migration spans, so the sweep's
	// absolute crash points land inside it.
	dry := durable.NewMemFS(durable.FaultPlan{})
	c, err := preload(dry)
	if err != nil {
		t.Fatal(err)
	}
	base := dry.IOCount()
	if err := c.Reshard(4); err != nil {
		t.Fatal(err)
	}
	end := dry.IOCount()
	c.Close()
	if end <= base {
		t.Fatalf("migration performed no IO (base=%d end=%d)", base, end)
	}
	steps := uint64(8)
	if testing.Short() {
		steps = 4
	}
	for s := uint64(0); s < steps; s++ {
		p := base + 1 + s*(end-base)/steps
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			fs := durable.NewMemFS(durable.FaultPlan{CrashAtIO: p})
			c, err := preload(fs)
			if err != nil {
				t.Fatal(err)
			}
			// The crash trips breakers and (with repair off) the engine
			// waits for a recovery that never comes: run Reshard in the
			// background and simulate process death with Close once the
			// disk is gone.
			done := make(chan error, 1)
			go func() { done <- c.Reshard(4) }()
			deadline := time.Now().Add(20 * time.Second)
			finished, rerr := false, error(nil)
			for !fs.Crashed() && !finished {
				select {
				case rerr = <-done:
					finished = true
				default:
					time.Sleep(100 * time.Microsecond)
				}
				if time.Now().After(deadline) {
					t.Fatal("crash point never fired")
				}
			}
			c.Close()
			if !finished {
				<-done
			}
			if !fs.Crashed() {
				if rerr != nil {
					t.Fatalf("no crash but reshard failed: %v", rerr)
				}
				t.Skipf("crash point %d beyond this run's migration IO", p)
			}
			fs.Reboot()
			// Three restart cycles: each reopen resumes any journaled
			// migration; all must converge with every key intact.
			for cycle := 0; cycle < 3; cycle++ {
				o := durableReshardOpts(fs, 0, RangePartition)
				c2, err := OpenCluster(o)
				if err != nil {
					t.Fatalf("cycle %d: reopen: %v", cycle, err)
				}
				wait := time.Now().Add(20 * time.Second)
				for c2.Migrating() && time.Now().Before(wait) {
					time.Sleep(time.Millisecond)
				}
				if c2.Migrating() {
					t.Fatalf("cycle %d: resumed migration never finished", cycle)
				}
				s2 := c2.NewSession()
				for k := uint64(0); k < keys; k++ {
					v, ok, err := s2.Get(k * (1 << 56))
					if err != nil || !ok || v != k {
						t.Fatalf("cycle %d: key %d: %d,%v,%v", cycle, k, v, ok, err)
					}
				}
				sh, ep := c2.Shards(), c2.Epoch()
				if !(sh == 4 && ep == 1) && !(sh == 2 && ep == 0) {
					t.Fatalf("cycle %d: inconsistent topology shards=%d epoch=%d", cycle, sh, ep)
				}
				if cycle > 0 && sh != 4 {
					// Cycle 0 finished any journaled migration; later
					// cycles must see it committed (or never started, in
					// which case sh==2 stays — but then cycle 0 already
					// reported 2, which the assertion above allowed).
					_ = sh
				}
				c2.Close()
			}
		})
	}
}

// createHookFS wraps a durable.FS and calls hook just before the nth (and
// every later) Create of a path containing name — the way to hit exactly
// the engine's first cutover journal, which is the second
// cluster-reshard.tmp a Reshard creates (the first is Reshard's own).
type createHookFS struct {
	durable.FS
	name string
	nth  int32
	seen atomic.Int32
	hook func()
}

func (f *createHookFS) Create(name string) (durable.File, error) {
	if strings.Contains(name, f.name) && f.seen.Add(1) >= f.nth {
		f.hook()
	}
	return f.FS.Create(name)
}

// splitOverHookedRoot opens a durable 2-shard cluster whose shards live on
// healthy disks of their own and whose root (manifest) disk runs hook from
// the engine's first cutover journal on, preloads it, and runs Reshard(4)
// under a watchdog.
func splitOverHookedRoot(t *testing.T, root *durable.MemFS, hook func()) (*Cluster, ClusterOptions, error) {
	t.Helper()
	disks := make([]*durable.MemFS, 4)
	for i := range disks {
		disks[i] = durable.NewMemFS(durable.FaultPlan{})
	}
	o := durableReshardOpts(root, 2, RangePartition)
	o.PerShard = func(i int, so *Options) { so.Durability.FS = disks[i] }
	o.Repair = RepairOptions{Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}
	hooked := o
	hooked.Shard.Durability.FS = &createHookFS{FS: root, name: "cluster-reshard.tmp", nth: 2, hook: hook}
	c, err := OpenCluster(hooked)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession()
	defer sess.Close()
	for k := uint64(0); k < 128; k++ {
		if err := sess.Put(k<<57, k); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- c.Reshard(4) }()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Reshard still blocked 20s after its manifest disk stopped working (stall bound: 40ms)")
	}
	return c, o, err
}

// TestReshardManifestDiskDies: the root disk dies at the engine's first
// cutover journal while every shard stays healthy. Reshard must come back
// with the stall error instead of retrying forever; the cluster keeps
// serving and closes; a reopen on the rebooted disk resumes the migration
// and finishes it.
func TestReshardManifestDiskDies(t *testing.T) {
	root := durable.NewMemFS(durable.FaultPlan{})
	c, o, err := splitOverHookedRoot(t, root, root.Kill)
	if !errors.Is(err, ErrShardUnavailable) && !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Reshard over a dead manifest disk = %v", err)
	}
	if !c.Migrating() {
		t.Fatal("the stalled migration was abandoned, not left retrying")
	}
	if err := c.Reshard(3); !errors.Is(err, ErrReshardInProgress) {
		t.Fatalf("second Reshard during the stalled one = %v", err)
	}
	sess := c.NewSession()
	v := c.table.View()
	for k := uint64(0); k < 128; k++ {
		key := k << 57
		if got, ok, err := sess.Get(key); err != nil || !ok || got != k {
			t.Fatalf("Get(%d) mid-stall = %d, %v, %v", key, got, ok, err)
		}
		if _, moving := v.MoveOf(key); !moving {
			if err := sess.Put(key, k); err != nil {
				t.Fatalf("Put(%d) on a stable key mid-stall: %v", key, err)
			}
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked behind the stalled migration")
	}

	root.Reboot()
	o.Shards = 0
	c2, err := OpenCluster(o)
	if err != nil {
		t.Fatalf("reopen on the rebooted disk: %v", err)
	}
	defer c2.Close()
	for wait := time.Now().Add(20 * time.Second); c2.Migrating(); time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatal("resumed migration never finished")
		}
	}
	if c2.Shards() != 4 || c2.Epoch() != 1 {
		t.Fatalf("after resume: shards=%d epoch=%d", c2.Shards(), c2.Epoch())
	}
	s2 := c2.NewSession()
	for k := uint64(0); k < 128; k++ {
		if got, ok, err := s2.Get(k << 57); err != nil || !ok || got != k {
			t.Fatalf("Get(%d) after resume = %d, %v, %v", k<<57, got, ok, err)
		}
	}
}
