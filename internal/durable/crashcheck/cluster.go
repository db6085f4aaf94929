package crashcheck

import (
	"fmt"
	"time"

	"eunomia"
	"eunomia/internal/durable"
)

// This file is what a Scenario with Cluster set does before the shared
// recovery tail. The failure model is richer than the single-DB one:
// instead of the whole machine dying, a seeded SUBSET of the shard disks
// dies (k of N, chosen by the kill bitmask), possibly including the cluster
// root's manifest disk — so crash points land mid-group-commit on some
// shards while others keep serving, mid-snapshot-barrier while the
// cluster-wide manifest is being committed, and (Reshard) anywhere in a
// live migration. Writers continue past per-shard errors (a dead shard is
// not a dead process): every failed write stays in the history with an
// open window, exactly like the single-DB in-flight rule. After the run
// the whole cluster reboots and recovers through OpenCluster, which
// re-checks the snapshot-barrier vector and resumes a journaled migration.
func (r *run) cluster() Result {
	s := r.s
	plan := s.faultPlan()
	// A Reshard run serves from max(Cluster, Reshard) disks: destination
	// slots opened by the split get their own killable disks, so crash
	// points land on the copy's write side too. The last disk is the root's.
	shards := max(s.Cluster, s.Reshard)
	disks := make([]*durable.MemFS, shards+1)
	for i := range disks {
		disks[i] = durable.NewMemFS(durable.FaultPlan{})
		if s.Kill&(1<<uint(i)) != 0 {
			disks[i] = durable.NewMemFS(plan)
		}
	}
	anyCrashed := func() bool {
		for _, fs := range disks {
			if fs.Crashed() {
				return true
			}
		}
		return false
	}
	open := func(n int) (*eunomia.Cluster, error) {
		co := eunomia.ClusterOptions{
			Shards:  n,
			Reshard: eunomia.ReshardOptions{CutBeforeCatchup: s.CutBeforeCatchup},
			Shard: eunomia.Options{
				Kind:       s.Kind,
				ArenaWords: 1 << 19,
				Durability: s.durability("clusterdb", disks[shards]),
			},
			PerShard: func(i int, o *eunomia.Options) { o.Durability.FS = disks[i] },
		}
		if s.Heal {
			// Heal runs need a sensitive breaker and a tight repair loop so
			// the full trip→reopen→probation→readmit cycle fits in one run.
			co.Health = eunomia.HealthOptions{Window: 8, TripFailures: 2}
			co.Repair = eunomia.RepairOptions{
				Backoff:           2 * time.Millisecond,
				MaxBackoff:        20 * time.Millisecond,
				Probes:            2,
				ProbeInterval:     time.Millisecond,
				AdmitBeforeReplay: s.AdmitBeforeReplay,
			}
		}
		return eunomia.OpenCluster(co)
	}
	// The crash can fire inside OpenCluster itself (segment creation and
	// directory fsyncs are IO points); nothing was acknowledged, so phase 1
	// is skipped and the run goes straight to recovery.
	c, err := open(s.Cluster)
	if err != nil && !anyCrashed() {
		return Result{Err: fmt.Errorf("crashcheck: first cluster open: %w", err)}
	}
	// After a successful first open the topology record is durable, so
	// recovery opens adopt the stored shard count: a reshard may have
	// completed (or be mid-flight) by then, making the original count
	// stale. If the first open itself crashed, nothing was recorded and
	// recovery must restate the intended count.
	reopenShards := s.Cluster
	if s.Reshard != 0 && c != nil {
		reopenShards = 0
	}
	var res Result
	if c != nil {
		r.serve(c, disks, anyCrashed, &res)
	}
	res.Crashed = res.Crashed || anyCrashed()
	res.Acked = len(r.acked)
	if res.Err != nil {
		return res
	}

	// Reboot every disk and recover the whole cluster. Healthy disks keep
	// everything (clean restart); killed disks keep only synced prefixes
	// plus seeded torn tails. OpenCluster re-verifies the barrier vector
	// here: a shard recovering below a committed barrier is itself a
	// detected failure.
	for _, fs := range disks {
		fs.Reboot()
	}
	return r.recover(res, func() (eunomia.Store, error) {
		c, err := open(reopenShards)
		if err != nil {
			return nil, err
		}
		return c, nil
	})
}

// serve is a cluster run's first life: preload and live migration
// (Reshard), the concurrent writers, the in-place heal (Heal), and Close —
// this harness's process death. It reports into res.
func (r *run) serve(c *eunomia.Cluster, disks []*durable.MemFS, anyCrashed func() bool, res *Result) {
	s := r.s
	// The live migration runs concurrently with phase 1's writers. Reshard
	// returns when the migration finishes, when a dead disk has stalled it
	// past the engine's bound, or when the cluster closes.
	var reshardDone chan struct{}
	defer func() {
		c.Close() // joined errors expected after a crash
		if reshardDone != nil {
			<-reshardDone
		}
	}()
	if s.Reshard != 0 {
		// Preload the whole universe first: an empty cluster migrates
		// instantly (nothing to copy), leaving no window for crash points or
		// the cut-before-catch-up mutant to land in. The preload writes are
		// acknowledged history like any other.
		sess := c.NewSession()
		proc := s.Procs + s.Restarts + 3
		for key := uint64(1); key <= s.Keys; key++ {
			r.put(sess, proc, key, uint64(proc)<<40|key<<8|0x5)
		}
		sess.Close()
		reshardDone = make(chan struct{})
		go func() {
			defer close(reshardDone)
			_ = c.Reshard(s.Reshard)
		}()
	}
	migrating := func() bool {
		select {
		case <-reshardDone:
			return false
		default:
			return reshardDone != nil
		}
	}

	// Phase 1. With a live migration the writers run past their op budget
	// until the cutovers finish (hard-capped, and never past a crash): the
	// copy window then always overlaps acknowledged writes, so the overlap
	// the CutBeforeCatchup mutant loses is structural, not a scheduling
	// accident of a loaded test machine.
	maxOps := s.Ops
	if s.Reshard != 0 {
		maxOps = s.Ops * 64
	}
	r.writers(c, maxOps, survives, func(p, i int) bool {
		if i >= s.Ops && (!migrating() || anyCrashed()) {
			return false
		}
		if s.Barrier && p == 0 && i == s.Ops/2 {
			// Mid-run cluster snapshot: the barrier's per-shard syncs and
			// the manifest commit interleave their IO points with the killed
			// disks' streams. Errors are expected when a shard is already
			// dead.
			_ = c.Snapshot()
		}
		return true
	})

	// Phase 1b (Heal): the killed disks come back in place — same files,
	// same handles — and the cluster's own repair loop must bring every
	// wounded shard home. Puts keep hammering the whole universe while the
	// shards are down: failures feed the breakers (tripping shards the
	// crash left wounded-but-untripped, since their poisoned WALs never
	// acknowledge again), and once a shard is re-admitted its successes
	// are real acknowledged writes that enter the checked history. A
	// repair loop that re-admits a shard missing acknowledged data — or
	// one that serves writes it won't replay — fails the checker at the
	// post-reboot read phase.
	if res.Crashed = anyCrashed(); s.Heal && res.Crashed {
		for _, fs := range disks {
			if fs.Crashed() {
				fs.Reboot()
			}
		}
		proc := s.Procs + s.Restarts + 2
		sess := c.NewSession()
		deadline := time.Now().Add(15 * time.Second)
		for i, rounds := uint64(0), 0; ; rounds++ {
			res.Healed = rounds > 0
			for sh := 0; sh < s.Cluster; sh++ {
				res.Healed = res.Healed && c.ShardState(sh) == eunomia.ShardHealthy
			}
			if res.Healed {
				break
			}
			if time.Now().After(deadline) {
				res.Err = fmt.Errorf("crashcheck: shards never re-admitted after disk revival\nrepro: %s", ReproLine(s))
				return
			}
			for key := uint64(1); key <= s.Keys; key, i = key+1, i+1 {
				r.put(sess, proc, key, uint64(proc)<<40|i<<8|0x5)
			}
			time.Sleep(time.Millisecond)
		}
		sess.Close()
	}

	// On a crash-free run let the migration land before closing: the
	// cutover and purge must happen while the cluster serves, which is
	// exactly the window the CutBeforeCatchup mutant loses writes in. A
	// disk may still die under the migration after the writers have gone,
	// so the wait watches for a crash the whole time; on a crashed run the
	// engine is parked on a dead shard's breaker or a dead journal, and
	// Close stops it, like killing the process.
	for migrating() && !anyCrashed() {
		time.Sleep(100 * time.Microsecond)
	}
}
