package eunomia

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"eunomia/internal/durable"
	"eunomia/internal/metrics"
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

// TestClusterMetricsAggregation: Agg is the merge of PerShard from the same
// read — every counter the sum of the shards', the largest batch and flush
// the largest of theirs — PerShard is index-aligned with Cluster.DB, and
// the flush quantiles are the merged histogram's, not the worst shard's.
func TestClusterMetricsAggregation(t *testing.T) {
	fses := make([]*durable.MemFS, 3)
	for i := range fses {
		fses[i] = durable.NewMemFS(durable.FaultPlan{})
	}
	c, err := OpenCluster(ClusterOptions{
		Shards:    len(fses),
		Partition: HashPartition,
		Shard: Options{
			ArenaWords:    1 << 19,
			Durability:    Durability{Dir: "aggdb", FS: durable.NewMemFS(durable.FaultPlan{})},
			Observability: Observability{Heatmap: true},
		},
		PerShard: func(i int, o *Options) { o.Durability.FS = fses[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := c.NewSession()
	for k := uint64(0); k < 200; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cm := c.ClusterMetrics()
	if cm.Shards != 3 || len(cm.PerShard) != 3 {
		t.Fatalf("Shards=%d len(PerShard)=%d", cm.Shards, len(cm.PerShard))
	}
	var touched int
	for i, m := range cm.PerShard {
		if m.Tx.Commits > 0 {
			touched++
		}
		if m2 := c.DB(i).Metrics(); m2.Tx.Commits < m.Tx.Commits {
			t.Fatalf("PerShard[%d] not aligned with DB(%d)", i, i)
		}
	}
	shards := make([]reflect.Value, len(cm.PerShard))
	for i := range cm.PerShard {
		shards[i] = reflect.ValueOf(cm.PerShard[i])
	}
	checkMerged(t, "Agg", reflect.ValueOf(cm.Agg), shards)
	d := cm.Agg.Durability
	if !d.Enabled || d.Flushes == 0 || d.Snapshots != 3 || d.AvgBatch != float64(d.FlushedFrames)/float64(d.Flushes) {
		t.Fatalf("aggregate durability = %+v", d)
	}
	if cm.Agg.Tx.Commits < 200 {
		t.Fatalf("aggregate commits %d < 200 puts", cm.Agg.Tx.Commits)
	}
	if touched < 2 {
		t.Fatalf("200 hashed keys touched only %d shards", touched)
	}

	// Shard a flushes fast a thousand times, shard b once slowly: the
	// cluster's p50 and p99 are a's bucket and its max is b's flush. The
	// largest of the shards' own quantiles would report b's for both.
	var a, b, agg layerStats
	a.durOn, b.durOn = true, true
	a.dur.Flushes, a.dur.FlushedFrames, a.dur.MaxBatch = 1000, 1000, 1
	for i := 0; i < 1000; i++ {
		a.dur.Lat.Observe(1_000)
	}
	b.dur.Flushes, b.dur.FlushedFrames, b.dur.MaxBatch = 1, 8, 8
	b.dur.Lat.Observe(1_000_000)
	agg.merge(&a)
	agg.merge(&b)
	var lat metrics.Histogram
	lat.Merge(&a.dur.Lat)
	lat.Merge(&b.dur.Lat)
	worst := b.metrics().Durability
	got := agg.metrics().Durability
	if got.FlushP50Ns != lat.Quantile(0.50) || got.FlushP99Ns != lat.Quantile(0.99) || got.FlushMaxNs != 1_000_000 {
		t.Fatalf("merged flush p50/p99/max = %d/%d/%d, want %d/%d/1000000",
			got.FlushP50Ns, got.FlushP99Ns, got.FlushMaxNs, lat.Quantile(0.50), lat.Quantile(0.99))
	}
	if got.FlushP99Ns >= worst.FlushP99Ns {
		t.Fatalf("merged flush p99 %d is the slow shard's (%d)", got.FlushP99Ns, worst.FlushP99Ns)
	}
	if got.AvgBatch != 1008.0/1001 || got.MaxBatch != 8 {
		t.Fatalf("merged batch avg/max = %v/%d", got.AvgBatch, got.MaxBatch)
	}
}

// checkMerged requires agg, a Metrics value or one of its sections, to be
// the merge of the shards' values at the same path: counters and maps
// summed, flags or-ed, hot leaves pooled, MaxBatch and FlushMaxNs the
// largest. The flush quantiles and mean batch are derived from the merged
// record, which the caller checks.
func checkMerged(t *testing.T, path string, agg reflect.Value, shards []reflect.Value) {
	t.Helper()
	switch agg.Kind() {
	case reflect.Struct:
		for f := 0; f < agg.NumField(); f++ {
			name := agg.Type().Field(f).Name
			fields := make([]reflect.Value, len(shards))
			for i, s := range shards {
				fields[i] = s.Field(f)
			}
			switch name {
			case "FlushP50Ns", "FlushP99Ns", "AvgBatch":
				continue
			case "MaxBatch", "FlushMaxNs":
				var want uint64
				for _, s := range fields {
					want = max(want, s.Uint())
				}
				if agg.Field(f).Uint() != want {
					t.Errorf("%s.%s = %d, want the shards' largest %d", path, name, agg.Field(f).Uint(), want)
				}
				continue
			}
			checkMerged(t, path+"."+name, agg.Field(f), fields)
		}
	case reflect.Map:
		want := map[string]uint64{}
		for _, s := range shards {
			for it := s.MapRange(); it.Next(); {
				want[it.Key().String()] += it.Value().Uint()
			}
		}
		if got := agg.Interface().(map[string]uint64); !maps.Equal(got, want) {
			t.Errorf("%s = %v, want the shards' sum %v", path, got, want)
		}
	case reflect.Slice:
		var want int
		for _, s := range shards {
			want += s.Len()
		}
		if agg.Len() != want {
			t.Errorf("len(%s) = %d, want the shards' %d", path, agg.Len(), want)
		}
	case reflect.Bool:
		var want bool
		for _, s := range shards {
			want = want || s.Bool()
		}
		if agg.Bool() != want {
			t.Errorf("%s = %v, want %v", path, agg.Bool(), want)
		}
	case reflect.Uint64:
		var want uint64
		for _, s := range shards {
			want += s.Uint()
		}
		if agg.Uint() != want {
			t.Errorf("%s = %d, want the shards' sum %d", path, agg.Uint(), want)
		}
	case reflect.Int, reflect.Int64:
		var want int64
		for _, s := range shards {
			want += s.Int()
		}
		if agg.Int() != want {
			t.Errorf("%s = %d, want the shards' sum %d", path, agg.Int(), want)
		}
	default:
		t.Fatalf("%s: no merge rule for a %v", path, agg.Kind())
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
