package eunomia

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eunomia/internal/durable"
)

// fastRepair is the repair tuning used by the health tests: tight enough
// that a full trip→reopen→probation→readmit cycle fits in milliseconds.
func fastRepair() RepairOptions {
	return RepairOptions{
		Backoff:       2 * time.Millisecond,
		MaxBackoff:    20 * time.Millisecond,
		Probes:        2,
		ProbeInterval: time.Millisecond,
	}
}

// openHealthCluster opens a 3-shard durable cluster over per-shard
// MemFS disks with a sensitive breaker and fast repair.
func openHealthCluster(t *testing.T, fses []*durable.MemFS, manifestFS *durable.MemFS, repair RepairOptions) *Cluster {
	t.Helper()
	c, err := OpenCluster(ClusterOptions{
		Shards: len(fses),
		Shard: Options{
			ArenaWords: 1 << 19,
			Durability: Durability{Dir: "clusterdb", FS: manifestFS},
		},
		PerShard: func(i int, o *Options) { o.Durability.FS = fses[i] },
		Health:   HealthOptions{Window: 8, TripFailures: 2},
		Repair:   repair,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// shardKeys returns n keys owned by the given shard.
func shardKeys(c *Cluster, sh int, start uint64, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := start; len(keys) < n; k++ {
		if c.ShardFor(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

// tripShard drives writes at a shard whose disk is dead until its
// breaker opens.
func tripShard(t *testing.T, c *Cluster, sess *Session, sh int) {
	t.Helper()
	for _, k := range shardKeys(c, sh, 50_000, 50) {
		sess.Put(k, 1)
		if c.ShardState(sh) == ShardFailed {
			return
		}
	}
	t.Fatalf("shard %d never tripped (state %v)", sh, c.ShardState(sh))
}

// waitShardState polls until shard sh reaches want.
func waitShardState(t *testing.T, c *Cluster, sh int, want ShardState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := c.ShardState(sh); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("shard %d stuck in %v, want %v (health: %+v)", sh, got, want, c.ClusterMetrics().Health[sh])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterShardBreakerFailFast: a dead shard disk trips that shard's
// breaker; routed ops then fail fast with the typed shard error while
// the healthy shards keep serving, and the shed counter records the
// fail-fast rejections.
func TestClusterShardBreakerFailFast(t *testing.T) {
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	// Repair disabled: this test pins the failed steady state.
	c := openHealthCluster(t, fses, durable.NewMemFS(durable.FaultPlan{}), RepairOptions{Disable: true})
	sess := c.NewSession()
	for k := uint64(0); k < 60; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	fses[1].Kill()
	tripShard(t, c, sess, 1)

	// Fail fast: the op must not touch the dead shard's store.
	before := fses[1].IOCount()
	k1 := shardKeys(c, 1, 90_000, 1)[0]
	err := sess.Put(k1, 1)
	if err == nil {
		t.Fatal("Put on a failed shard succeeded")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 || se.State != ShardFailed {
		t.Fatalf("Put on failed shard = %v (want *ShardError for shard 1, failed)", err)
	}
	if got := fses[1].IOCount(); got != before {
		t.Fatalf("fail-fast op still touched the dead disk (%d -> %d IOs)", before, got)
	}
	// Reads fail fast too, and the healthy shards are untouched.
	if _, _, err := sess.Get(k1); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Get on failed shard = %v", err)
	}
	for _, k := range append(shardKeys(c, 0, 90_000, 3), shardKeys(c, 2, 90_000, 3)...) {
		if err := sess.Put(k, 7); err != nil {
			t.Fatalf("healthy shard write failed: %v", err)
		}
		if v, ok, err := sess.Get(k); err != nil || !ok || v != 7 {
			t.Fatalf("healthy shard read = %d,%v,%v", v, ok, err)
		}
	}
	m := c.ClusterMetrics()
	if m.Health[1].State != ShardFailed || m.Health[1].Trips != 1 || m.Health[1].Cause == "" {
		t.Fatalf("shard 1 health = %+v", m.Health[1])
	}
	if m.Health[0].State != ShardHealthy || m.Health[2].State != ShardHealthy {
		t.Fatalf("healthy shards scored: %+v %+v", m.Health[0], m.Health[2])
	}
	if m.Fault.ShedOps == 0 || m.Fault.Trips != 1 {
		t.Fatalf("fault counters = %+v", m.Fault)
	}
}

// TestClusterShardSentinels: "the cluster shut down" (ErrClosed) and
// "the owning shard died" (ErrShardUnavailable) are distinguishable with
// errors.Is, no string matching needed.
func TestClusterShardSentinels(t *testing.T) {
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	c := openHealthCluster(t, fses, durable.NewMemFS(durable.FaultPlan{}), RepairOptions{Disable: true})
	sess := c.NewSession()
	fses[2].Kill()
	tripShard(t, c, sess, 2)

	k2 := shardKeys(c, 2, 1000, 1)[0]
	err := sess.Put(k2, 1)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("dead-shard error %v does not match ErrShardUnavailable", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("dead-shard error %v matches ErrClosed: ambiguous with cluster shutdown", err)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 2 || se.Cause == nil {
		t.Fatalf("dead-shard error %v does not carry *ShardError{Shard:2, Cause}", err)
	}

	if err := c.Close(); err != nil && !strings.Contains(err.Error(), "cluster shard 2") {
		t.Fatal(err)
	}
	err = sess.Put(k2, 1)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("closed-cluster error = %v, want ErrClosed", err)
	}
	if errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("closed-cluster error %v matches ErrShardUnavailable: ambiguous with shard death", err)
	}
}

// TestClusterRepairReadmitsShard is the self-healing round trip: disk
// dies → breaker trips → disk comes back → the repair loop reopens the
// shard, replays its WAL, passes probation, and re-admits it — with
// every previously acknowledged key intact and new writes served.
func TestClusterRepairReadmitsShard(t *testing.T) {
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	c := openHealthCluster(t, fses, durable.NewMemFS(durable.FaultPlan{}), fastRepair())
	sess := c.NewSession()
	for k := uint64(0); k < 120; k++ {
		if err := sess.Put(k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	fses[1].Kill()
	tripShard(t, c, sess, 1)
	fses[1].Reboot()
	waitShardState(t, c, 1, ShardHealthy)

	// Every key acknowledged before the kill — including shard 1's — is
	// served again; the Session re-threads onto the repaired DB
	// transparently.
	for k := uint64(0); k < 120; k++ {
		if v, ok, err := sess.Get(k); err != nil || !ok || v != k+7 {
			t.Fatalf("key %d (shard %d) after repair = %d,%v,%v", k, c.ShardFor(k), v, ok, err)
		}
	}
	k1 := shardKeys(c, 1, 90_000, 1)[0]
	if err := sess.Put(k1, 42); err != nil {
		t.Fatalf("write to re-admitted shard: %v", err)
	}
	if v, ok, err := sess.Get(k1); err != nil || !ok || v != 42 {
		t.Fatalf("read-back on re-admitted shard = %d,%v,%v", v, ok, err)
	}
	m := c.ClusterMetrics()
	if m.Health[1].Repairs != 1 || m.Fault.Repairs != 1 {
		t.Fatalf("repair not recorded: %+v / %+v", m.Health[1], m.Fault)
	}
	if m.Health[1].State != ShardHealthy || m.Health[1].Permanent {
		t.Fatalf("shard 1 health after repair = %+v", m.Health[1])
	}
}

// TestClusterRepairRefusesRolledBackShard: probation's durable-watermark
// gate. The shard's disk comes back *empty* (swapped disk, wiped
// directory): recovery succeeds but ends below the watermark captured at
// trip time, so repair must refuse re-admission permanently instead of
// serving the hole where acknowledged writes used to be.
func TestClusterRepairRefusesRolledBackShard(t *testing.T) {
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	r := fastRepair()
	// Generous first backoff: the test wipes the disk in the gap between
	// the trip and the repair loop's first reopen attempt.
	r.Backoff = 200 * time.Millisecond
	r.MaxBackoff = 400 * time.Millisecond
	c := openHealthCluster(t, fses, durable.NewMemFS(durable.FaultPlan{}), r)
	sess := c.NewSession()
	for k := uint64(0); k < 80; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	fses[1].Kill()
	tripShard(t, c, sess, 1)

	// The disk comes back blank: revive the FS, then delete everything
	// under the shard's directory.
	fses[1].Reboot()
	dir := "clusterdb/shard-1"
	names, err := fses[1].List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := fses[1].Remove(dir + "/" + n); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for !c.ClusterMetrics().Health[1].Permanent {
		if time.Now().After(deadline) {
			t.Fatalf("repair never refused the rolled-back shard: %+v", c.ClusterMetrics().Health[1])
		}
		time.Sleep(2 * time.Millisecond)
	}
	h := c.ClusterMetrics().Health[1]
	if h.State != ShardFailed {
		t.Fatalf("rolled-back shard state = %v, want failed", h.State)
	}
	if !strings.Contains(h.Cause, "acknowledged writes are missing") {
		t.Fatalf("refusal cause = %q", h.Cause)
	}
	if h.Repairs != 0 {
		t.Fatalf("rolled-back shard was re-admitted: %+v", h)
	}
	if err := sess.Put(shardKeys(c, 1, 90_000, 1)[0], 1); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("op on permanently failed shard = %v", err)
	}
	// The healthy shard is unaffected.
	if err := sess.Put(shardKeys(c, 0, 90_000, 1)[0], 1); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRepairNoGoroutineLeak: a repair loop spinning against a
// still-dead disk must exit promptly on Close — no leaked probe
// goroutines, no leaked timers.
func TestClusterRepairNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	c := openHealthCluster(t, fses, durable.NewMemFS(durable.FaultPlan{}), fastRepair())
	sess := c.NewSession()
	for k := uint64(0); k < 40; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	fses[1].Kill()
	tripShard(t, c, sess, 1)
	if !c.shard(1).repairing.Load() {
		// The loop may legitimately be between states, but it must be
		// running by now: the disk is dead, so it cannot have finished.
		t.Fatal("repair loop not running after trip")
	}
	// Close must stop the loop even though the disk never came back.
	if err := c.Close(); err != nil && !strings.Contains(err.Error(), "cluster shard 1") {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > %d after Close: repair probes leaked", g, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRetryBudget: transient failures are retried at most once
// per op and only while the Session holds a banked token, so a failing
// shard sees at most budget extra attempts — retries cannot amplify a
// storm.
func TestClusterRetryBudget(t *testing.T) {
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	c, err := OpenCluster(ClusterOptions{
		Shards: 2,
		Shard: Options{
			ArenaWords: 1 << 19,
			Durability: Durability{Dir: "clusterdb", FS: durable.NewMemFS(durable.FaultPlan{})},
		},
		PerShard: func(i int, o *Options) { o.Durability.FS = fses[i] },
		// A wide window keeps the shard Degraded (never Failed) so every
		// op reaches the store and the budget is the only limiter.
		Health: HealthOptions{Window: 64, TripFailures: 60},
		Repair: RepairOptions{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := c.NewSession()
	for k := uint64(0); k < 30; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	fses[1].Kill()
	keys := shardKeys(c, 1, 50_000, 10)
	for _, k := range keys {
		if err := sess.Put(k, 1); err == nil {
			t.Fatal("Put on dead disk succeeded")
		}
	}
	m := c.ClusterMetrics()
	if m.Fault.Retries != 3 {
		t.Fatalf("retries spent = %d, want exactly the budget (3)", m.Fault.Retries)
	}
	if m.Fault.RetriesDenied != uint64(len(keys)-3) {
		t.Fatalf("retries denied = %d, want %d", m.Fault.RetriesDenied, len(keys)-3)
	}
	// 10 ops, 3 of them retried once: the dead shard absorbed 13 attempts,
	// not 20 — and the breaker saw every failure.
	if f := m.Health[1].Failures; f != 13 {
		t.Fatalf("shard 1 scored %d failures, want 13", f)
	}
}

// TestClusterSnapshotDegradesToHealthySubset: a cluster-wide snapshot
// with one shard failed still snapshots every healthy shard, records the
// exclusion in the barrier manifest (carrying the failed shard at its
// last sound floor), names only the failed shard in the error — and the
// manifest still verifies on reopen once the disk comes back.
func TestClusterSnapshotDegradesToHealthySubset(t *testing.T) {
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	manifestFS := durable.NewMemFS(durable.FaultPlan{})
	open := func() *Cluster {
		c, err := OpenCluster(ClusterOptions{
			Shards: 3,
			Shard: Options{
				ArenaWords: 1 << 19,
				Durability: Durability{Dir: "clusterdb", FS: manifestFS},
			},
			PerShard: func(i int, o *Options) { o.Durability.FS = fses[i] },
			Health:   HealthOptions{Window: 8, TripFailures: 2},
			Repair:   RepairOptions{Disable: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	sess := c.NewSession()
	for k := uint64(0); k < 150; k++ {
		if err := sess.Put(k, k+3); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(); err != nil {
		t.Fatalf("all-healthy snapshot: %v", err)
	}
	base := []uint64{
		c.DB(0).Metrics().Durability.Snapshots,
		c.DB(1).Metrics().Durability.Snapshots,
		c.DB(2).Metrics().Durability.Snapshots,
	}
	// More acked writes, then shard 1's disk dies.
	for k := uint64(150); k < 200; k++ {
		if err := sess.Put(k, k+3); err != nil {
			t.Fatal(err)
		}
	}
	fses[1].Kill()
	tripShard(t, c, sess, 1)

	err := c.Snapshot()
	if err == nil {
		t.Fatal("degraded snapshot must report the excluded shard")
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("degraded snapshot error %v does not wrap ErrShardUnavailable", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "cluster shard 1 snapshot") {
		t.Fatalf("error does not name the excluded shard: %v", err)
	}
	if strings.Contains(msg, "cluster shard 0") || strings.Contains(msg, "cluster shard 2") {
		t.Fatalf("error blames a healthy shard: %v", err)
	}
	// The healthy shards actually snapshotted.
	for _, i := range []int{0, 2} {
		if got := c.DB(i).Metrics().Durability.Snapshots; got != base[i]+1 {
			t.Fatalf("shard %d snapshots = %d, want %d", i, got, base[i]+1)
		}
	}
	if err := c.Close(); err != nil && !strings.Contains(err.Error(), "cluster shard 1") {
		t.Fatal(err)
	}

	// Disk back, cluster reopened: the barrier manifest (exclusion set + floor
	// vector) must parse and verify, and every acknowledged key — shard
	// 1's included — must be there.
	fses[1].Reboot()
	c2 := open()
	defer c2.Close()
	sess2 := c2.NewSession()
	for k := uint64(0); k < 200; k++ {
		if v, ok, err := sess2.Get(k); err != nil || !ok || v != k+3 {
			t.Fatalf("key %d (shard %d) after reopen = %d,%v,%v", k, c2.ShardFor(k), v, ok, err)
		}
	}
}

// TestClusterRangeMidScanFailure is the satellite bugfix test: a shard
// dying mid-merge must surface, not truncate the stream silently.
// RangePartial keeps merging the healthy shard and reports the casualty;
// strict Range refuses to continue; Scan returns the error.
func TestClusterRangeMidScanFailure(t *testing.T) {
	c, err := OpenCluster(ClusterOptions{
		Shards: 2,
		Shard:  Options{ArenaWords: 1 << 19},
		Health: HealthOptions{Window: 8, TripFailures: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := c.NewSession()
	const n = 1000
	for k := uint64(0); k < n; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var stat RangeStat
	got := map[uint64]uint64{}
	i := 0
	for k, v := range sess.RangePartial(0, n-1, &stat) {
		got[k] = v
		i++
		if i == 10 {
			// The shard's store dies out from under the merge (the
			// in-process analogue of a disk vanishing mid-scan).
			c.DB(0).Close()
		}
	}
	if !stat.Partial {
		t.Fatal("mid-scan shard death not reported: stat.Partial = false")
	}
	if len(stat.Failed) != 1 || stat.Failed[0] != 0 {
		t.Fatalf("stat.Failed = %v, want [0]", stat.Failed)
	}
	if !errors.Is(stat.Err, ErrShardUnavailable) {
		t.Fatalf("stat.Err = %v, does not wrap ErrShardUnavailable", stat.Err)
	}
	// Shard 1's slice of the range is complete — the healthy shard's merge
	// continued past the failure point.
	miss0, miss1 := 0, 0
	for k := uint64(0); k < n; k++ {
		if _, ok := got[k]; ok {
			continue
		}
		if c.ShardFor(k) == 0 {
			miss0++
		} else {
			miss1++
		}
	}
	if miss1 != 0 {
		t.Fatalf("%d healthy-shard keys missing from partial merge", miss1)
	}
	if miss0 == 0 {
		t.Fatal("every dead-shard key was served: failure did not inject")
	}

	// Strict Range on the now-tripped shard yields nothing rather than a
	// stream with a hole.
	for k, v := range sess.Range(0, n-1) {
		t.Fatalf("strict Range yielded %d=%d past a failed shard", k, v)
	}
	// Scan surfaces the error alongside the healthy shard's keys.
	cnt, err := sess.Scan(0, n, func(_, _ uint64) bool { return true })
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Scan error = %v, want ErrShardUnavailable", err)
	}
	if cnt == 0 || cnt >= n {
		t.Fatalf("Scan visited %d keys, want only the healthy shard's", cnt)
	}
}

// panicOpenFS wraps a durable.FS whose Open panics once armed: a
// filesystem that blows up under a library goroutine.
type panicOpenFS struct {
	durable.FS
	armed atomic.Bool
}

func (f *panicOpenFS) Open(name string) (durable.File, error) {
	if f.armed.Load() {
		panic("panicOpenFS: injected panic opening " + name)
	}
	return f.FS.Open(name)
}

// TestLibraryGoroutinePanicsContained: a panic on a goroutine the cluster
// started — the repair loop, the migration engine — ends that piece of
// work with an error; it never ends the process. A cluster that never
// needed one of them starts none.
func TestLibraryGoroutinePanicsContained(t *testing.T) {
	t.Run("repair", func(t *testing.T) {
		mem := []*durable.MemFS{durable.NewMemFS(durable.FaultPlan{}), durable.NewMemFS(durable.FaultPlan{})}
		bad := &panicOpenFS{FS: mem[1]}
		c, err := OpenCluster(ClusterOptions{
			Shards: 2,
			Shard: Options{
				ArenaWords: 1 << 19,
				Durability: Durability{Dir: "clusterdb", FS: durable.NewMemFS(durable.FaultPlan{})},
			},
			PerShard: func(i int, o *Options) {
				o.Durability.FS = mem[0]
				if i == 1 {
					o.Durability.FS = bad
				}
			},
			Health: HealthOptions{Window: 8, TripFailures: 2},
			Repair: fastRepair(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := c.NewSession()
		for k := uint64(0); k < 64; k++ {
			if err := sess.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		// Shard 1's disk dies and comes back; the repair loop's reopen then
		// reads the WAL through an Open that panics.
		bad.armed.Store(true)
		mem[1].Kill()
		tripShard(t, c, sess, 1)
		mem[1].Reboot()
		for wait := time.Now().Add(10 * time.Second); !c.ClusterMetrics().Health[1].Permanent; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatalf("shard 1 not parked after its repair panicked: %+v", c.ClusterMetrics().Health[1])
			}
		}
		if h := c.ClusterMetrics().Health[1]; h.State != ShardFailed || !strings.Contains(h.Cause, "panicked") {
			t.Fatalf("shard 1 after its repair panicked: %+v", h)
		}
		for _, k := range shardKeys(c, 0, 0, 16) {
			if err := sess.Put(k, k+1); err != nil {
				t.Fatalf("healthy shard stopped serving: %v", err)
			}
		}
		if err := sess.Put(shardKeys(c, 1, 0, 1)[0], 1); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("Put on the parked shard = %v", err)
		}
		c.Close() // returns; shard 1's dead store reports its own error
	})
	t.Run("engine", func(t *testing.T) {
		root := durable.NewMemFS(durable.FaultPlan{})
		c, _, err := splitOverHookedRoot(t, Emulated, root, func() { panic("injected panic creating the cutover journal") })
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("Reshard whose engine panicked = %v", err)
		}
		// The fence the engine held when it blew up was released: keys of
		// the move it was cutting over still serve.
		sess := c.NewSession()
		for k := uint64(0); k < 128; k++ {
			if err := sess.Put(k<<57, k+1); err != nil {
				t.Fatalf("Put(%d) after the engine panicked: %v", k<<57, err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
	// With nothing failed and no reshard in flight the library runs no
	// goroutine of its own, so a healthy durable cluster leaves none behind
	// (an earlier subtest's goroutine still winding down can only lower the
	// count, hence > and not !=).
	t.Run("none left behind", func(t *testing.T) {
		before := runtime.NumGoroutine()
		c, err := OpenCluster(ClusterOptions{
			Shards: 2,
			Shard: Options{
				ArenaWords: 1 << 19,
				Durability: Durability{Dir: "clusterdb", FS: durable.NewMemFS(durable.FaultPlan{})},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if open := runtime.NumGoroutine(); open > before {
			t.Fatalf("%d goroutines with the cluster open, %d before", open, before)
		}
		sess := c.NewSession()
		for k := uint64(0); k < 64; k++ {
			if err := sess.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%d goroutines after Close, %d before OpenCluster", after, before)
		}
	})
}
