package eunomia

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"eunomia/internal/durable"
)

// testCluster opens an in-memory (non-durable) cluster for routing and
// metrics tests.
func testCluster(t *testing.T, n int, part Partition) *Cluster {
	t.Helper()
	c, err := OpenCluster(ClusterOptions{
		Shards:    n,
		Partition: part,
		Shard:     Options{ArenaWords: 1 << 19},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterRoutesToOwningShard: a key written through a Session lands in
// exactly the shard ShardFor names — present there, absent everywhere else
// (inspected through each shard's own DB, below the router).
func TestClusterRoutesToOwningShard(t *testing.T) {
	c := testCluster(t, 3, HashPartition)
	sess := c.NewSession()
	keys := []uint64{0, 1, 7, 100, 1 << 40, ^uint64(0)}
	for _, k := range keys {
		if err := sess.Put(k, k^0xff); err != nil {
			t.Fatal(err)
		}
	}
	ths := make([]*Thread, c.Shards())
	for i := range ths {
		ths[i] = c.DB(i).NewThread()
	}
	for _, k := range keys {
		owner := c.ShardFor(k)
		for i, th := range ths {
			v, ok, err := th.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if i == owner && (!ok || v != k^0xff) {
				t.Fatalf("key %d missing from owning shard %d", k, owner)
			}
			if i != owner && ok {
				t.Fatalf("key %d leaked into shard %d (owner %d)", k, i, owner)
			}
		}
	}
	// Reads and deletes route identically.
	for _, k := range keys {
		if v, ok, err := sess.Get(k); err != nil || !ok || v != k^0xff {
			t.Fatalf("Get(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
	if ok, err := sess.Delete(keys[2]); err != nil || !ok {
		t.Fatalf("Delete = %v,%v", ok, err)
	}
	if _, ok, _ := sess.Get(keys[2]); ok {
		t.Fatal("deleted key still visible")
	}
}

// TestClusterRangePartitionContiguous: RangePartition assigns contiguous,
// monotone slices of the key space.
func TestClusterRangePartitionContiguous(t *testing.T) {
	c := testCluster(t, 4, RangePartition)
	if got := c.ShardFor(0); got != 0 {
		t.Fatalf("ShardFor(0) = %d", got)
	}
	if got := c.ShardFor(^uint64(0)); got != 3 {
		t.Fatalf("ShardFor(max) = %d", got)
	}
	prev := 0
	for i := uint64(0); i < 64; i++ {
		s := c.ShardFor(i << 58)
		if s < prev {
			t.Fatalf("range partition not monotone: key %#x -> shard %d after %d", i<<58, s, prev)
		}
		prev = s
	}
}

// TestClusterMetricsAggregation: Agg sums the per-shard counters, and
// PerShard is index-aligned with Cluster.DB.
func TestClusterMetricsAggregation(t *testing.T) {
	c := testCluster(t, 3, HashPartition)
	sess := c.NewSession()
	for k := uint64(0); k < 200; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	cm := c.ClusterMetrics()
	if cm.Shards != 3 || len(cm.PerShard) != 3 {
		t.Fatalf("Shards=%d len(PerShard)=%d", cm.Shards, len(cm.PerShard))
	}
	var sum uint64
	var touched int
	for i, m := range cm.PerShard {
		sum += m.Tx.Commits
		if m.Tx.Commits > 0 {
			touched++
		}
		if m2 := c.DB(i).Metrics(); m2.Tx.Commits < m.Tx.Commits {
			t.Fatalf("PerShard[%d] not aligned with DB(%d)", i, i)
		}
	}
	if cm.Agg.Tx.Commits != sum {
		t.Fatalf("Agg commits %d != per-shard sum %d", cm.Agg.Tx.Commits, sum)
	}
	if cm.Agg.Tx.Commits < 200 {
		t.Fatalf("aggregate commits %d < 200 puts", cm.Agg.Tx.Commits)
	}
	if touched < 2 {
		t.Fatalf("200 hashed keys touched only %d shards", touched)
	}
}

// TestClusterOptionsValidation: a negative shard count is rejected; zero
// defaults to 4.
func TestClusterOptionsValidation(t *testing.T) {
	if _, err := OpenCluster(ClusterOptions{Shards: -1, Shard: Options{ArenaWords: 1 << 19}}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	c, err := OpenCluster(ClusterOptions{Shard: Options{ArenaWords: 1 << 19}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 4 {
		t.Fatalf("default shards = %d, want 4", c.Shards())
	}
}

// TestClusterReservedValueRejected: Session.Put surfaces the single-DB
// reserved-value error.
func TestClusterReservedValueRejected(t *testing.T) {
	c := testCluster(t, 2, HashPartition)
	if err := c.NewSession().Put(1, ^uint64(0)); !errors.Is(err, ErrReservedValue) {
		t.Fatalf("Put(reserved) = %v, want ErrReservedValue", err)
	}
}

// TestClusterClosedOps: after Close, Session operations and cluster-level
// maintenance report ErrClosed; Close is idempotent.
func TestClusterClosedOps(t *testing.T) {
	c := testCluster(t, 2, HashPartition)
	sess := c.NewSession()
	if err := sess.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sess.Put(3, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, _, err := sess.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if _, err := sess.Scan(0, 10, func(k, v uint64) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after close = %v", err)
	}
	if err := c.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after close = %v", err)
	}
}

// TestClusterSnapshotWithoutDurability: Snapshot and Sync are no-ops on an
// in-memory cluster.
func TestClusterSnapshotWithoutDurability(t *testing.T) {
	c := testCluster(t, 2, HashPartition)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDurableRecovery: a durable cluster recovers every
// acknowledged write shard-by-shard (each shard replays its own WAL group
// under the cluster root).
func TestClusterDurableRecovery(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	opts := func() ClusterOptions {
		return ClusterOptions{
			Shards: 3,
			Shard: Options{
				ArenaWords: 1 << 19,
				Durability: Durability{Dir: "clusterdb", FS: fs},
			},
		}
	}
	c, err := OpenCluster(opts())
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession()
	for k := uint64(1); k <= 100; k++ {
		if err := sess.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(10); k <= 100; k += 10 {
		if _, err := sess.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCluster(opts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sess2 := c2.NewSession()
	for k := uint64(1); k <= 100; k++ {
		v, ok, err := sess2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if k%10 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected", k)
			}
		} else if !ok || v != k*3 {
			t.Fatalf("key %d lost across restart: %d,%v", k, v, ok)
		}
	}
	if ds := c2.ClusterMetrics().Agg.Durability; ds.ReplayedFrames == 0 && ds.SnapshotPairs == 0 {
		t.Fatal("recovery replayed nothing")
	}
}

// TestClusterSingleShardFailureJoined is the multi-DB error-surface test:
// one shard's filesystem dies mid-run; the cluster must keep serving the
// healthy shards, and Sync/Close must name the failing shard in a joined
// error instead of hiding it (or hiding the others behind it).
func TestClusterSingleShardFailureJoined(t *testing.T) {
	for p := uint64(1); p <= 60; p++ {
		fses := [3]*durable.MemFS{
			durable.NewMemFS(durable.FaultPlan{}),
			durable.NewMemFS(durable.FaultPlan{CrashAtIO: p}), // shard 1's disk dies
			durable.NewMemFS(durable.FaultPlan{}),
		}
		manifestFS := durable.NewMemFS(durable.FaultPlan{})
		c, err := OpenCluster(ClusterOptions{
			Shards: 3,
			Shard: Options{
				ArenaWords: 1 << 19,
				Durability: Durability{Dir: "clusterdb", FS: manifestFS},
			},
			PerShard: func(i int, o *Options) { o.Durability.FS = fses[i] },
		})
		if err != nil {
			// Crash fired inside Open: the joined error must name shard 1,
			// and the shards opened before it must have been closed.
			if !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("open error does not identify the failing shard: %v", err)
			}
			continue
		}
		sess := c.NewSession()
		var shard1Err error
		for k := uint64(0); k < 120; k++ {
			err := sess.Put(k, k)
			if err != nil {
				if c.ShardFor(k) != 1 {
					t.Fatalf("point %d: healthy shard %d failed: %v", p, c.ShardFor(k), err)
				}
				shard1Err = err
			}
		}
		if !fses[1].Crashed() || shard1Err == nil {
			c.Close()
			continue // crash point beyond this run's IO; try the next
		}
		// Healthy shards still serve reads and writes.
		hk := uint64(200)
		for c.ShardFor(hk) == 1 {
			hk++
		}
		if err := sess.Put(hk, 9); err != nil {
			t.Fatalf("point %d: healthy shard write failed after shard 1 died: %v", p, err)
		}
		if v, ok, err := sess.Get(hk); err != nil || !ok || v != 9 {
			t.Fatalf("point %d: healthy shard read failed: %d,%v,%v", p, v, ok, err)
		}
		syncErr := c.Sync()
		if syncErr == nil {
			t.Fatalf("point %d: Sync succeeded with a crashed shard disk", p)
		}
		// "cluster shard N" is the cluster-level attribution (the WAL's own
		// append files are also called "wal shard N" — don't match those).
		if !strings.Contains(syncErr.Error(), "cluster shard 1 sync") {
			t.Fatalf("Sync error does not identify the failing shard: %v", syncErr)
		}
		if strings.Contains(syncErr.Error(), "cluster shard 0") || strings.Contains(syncErr.Error(), "cluster shard 2") {
			t.Fatalf("Sync error blames healthy shards: %v", syncErr)
		}
		if err := c.Close(); err != nil && !strings.Contains(err.Error(), "cluster shard 1 close") {
			t.Fatalf("Close error does not identify the failing shard: %v", err)
		}
		t.Logf("crash point %d: shard 1 failed with %v; healthy shards unaffected", p, shard1Err)
		return
	}
	t.Fatal("no crash point produced a mid-run shard failure")
}

// TestClusterPerShardHook: the PerShard hook sees every index and can
// override options per shard.
func TestClusterPerShardHook(t *testing.T) {
	var seen []int
	c, err := OpenCluster(ClusterOptions{
		Shards: 3,
		Shard:  Options{ArenaWords: 1 << 19},
		PerShard: func(i int, o *Options) {
			seen = append(seen, i)
			o.ArenaWords = 1 << 18
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if fmt.Sprint(seen) != "[0 1 2]" {
		t.Fatalf("PerShard saw %v", seen)
	}
}
