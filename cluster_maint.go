package eunomia

import (
	"errors"
	"fmt"
)

// This file is the cluster's maintenance path: Sync, Snapshot and Close,
// and the snapshot barrier that OpenCluster verifies.

// Sync forces every healthy shard's acknowledged-but-buffered WAL bytes
// to disk. Every healthy shard is synced even if some fail; the error
// joins every failing (or breaker-open) shard's error rather than hiding
// all but the first.
func (c *Cluster) Sync() error {
	if c.closed.Load() {
		return ErrClosed
	}
	_, errs := c.syncShards(c.shardList(), "sync")
	return errors.Join(errs...)
}

// syncShards flushes every healthy shard's WAL, scoring each outcome
// against the shard's breaker, and returns the set (bit i for shard i) of
// shards that could not be synced — breaker already open, which op (the
// caller's name) skips, or the sync failed — with their errors.
func (c *Cluster) syncShards(shards []*clusterShard, op string) (failed uint64, errs []error) {
	for i, sh := range shards {
		var err error
		if c.healthOn && !sh.health.Allow() {
			err = fmt.Errorf("eunomia: cluster shard %d %s: %w", i, op, c.unavailable(i))
		} else if err = sh.db.Load().Sync(); err != nil {
			err = fmt.Errorf("eunomia: cluster shard %d sync: %w", i, c.shardFailed(sh, err))
		} else if c.healthOn {
			sh.health.RecordSuccess()
		}
		if err != nil {
			failed |= 1 << uint(i)
			errs = append(errs, err)
		}
	}
	return failed, errs
}

// Snapshot takes a consistent cluster-wide snapshot:
//
//  1. Barrier: every healthy shard flushes its WAL, then the per-shard
//     durable-LSN vector (flushed watermark, sound under concurrent
//     writers) is captured — a cut known on disk on every shard.
//  2. The vector is committed as the barrier manifest (tmp + sync +
//     rename + dir fsync) in the cluster root.
//  3. Each included shard snapshots and truncates independently.
//
// The manifest is the cross-shard consistency witness: recovery re-checks
// every shard against it, so a shard silently rolled back below the
// barrier (lost disk, restored-from-older-backup) fails OpenCluster
// instead of serving a state no single point in time ever had.
//
// Failed shards do not block the healthy subset: they are excluded from
// the barrier (the manifest records the exclusion set, and their vector
// entry carries the best known floor — the durable watermark captured at
// trip time, never less than the previous barrier's floor) and reported
// in the joined error. Every included shard is attempted even if some
// fail; failures are joined.
func (c *Cluster) Snapshot() error {
	if c.closed.Load() {
		return ErrClosed
	}
	if c.dir == "" {
		return nil
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	shards := c.shardList()
	excluded, errs := c.syncShards(shards, "snapshot")
	if excluded != 0 && !c.healthOn {
		return errors.Join(errs...)
	}
	if excluded == uint64(1)<<uint(len(shards))-1 {
		// Nothing healthy to snapshot; no barrier to write.
		return errors.Join(errs...)
	}
	prev, err := c.readBarrier()
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	vec := make([]uint64, len(shards))
	for i, sh := range shards {
		if excluded&(1<<uint(i)) != 0 {
			// Best sound floor for an excluded shard: what was flushed when
			// it tripped (or is flushed now, if it is still live enough to
			// say), never regressing below the previous barrier.
			vec[i] = sh.watermark.Load()
			if db := sh.db.Load(); db != nil {
				if lsn := db.durableLSN(); lsn > vec[i] {
					vec[i] = lsn
				}
			}
			if prev != nil && i < len(prev.vec) && prev.vec[i] > vec[i] {
				vec[i] = prev.vec[i]
			}
			continue
		}
		vec[i] = sh.db.Load().durableLSN()
	}
	if err := c.writeBarrier(vec, excluded); err != nil {
		return errors.Join(append(errs, err)...)
	}
	for i, sh := range shards {
		if excluded&(1<<uint(i)) != 0 {
			continue
		}
		if err := sh.db.Load().Snapshot(); err != nil {
			errs = append(errs, fmt.Errorf("eunomia: cluster shard %d snapshot: %w", i, c.shardFailed(sh, err)))
		}
	}
	return errors.Join(errs...)
}

// Close stops the repair loops and any in-flight migration, closes every
// shard (flushing each WAL), and marks the cluster closed. Idempotent.
// Every shard is closed even if some fail; failures are joined. A
// migration interrupted by Close is resumed from its manifest on the next
// OpenCluster.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Barrier: any spawn in flight has either registered with the
	// WaitGroup (Wait covers it) or will observe closed and stand down.
	c.repairMu.Lock()
	c.repairMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(c.stop)
	c.bg.Wait()
	return closeAfter(nil, c.shardList())
}

// verifyBarrier cross-checks recovered shards against the last committed
// barrier vector. The barrier's topology epoch decides how to read a
// shard-count difference:
//
//   - barrier epoch > current epoch: the store is from the cluster's
//     future — a stale shard tree was restored next to a newer barrier.
//     Refuse with ErrTopologyMismatch.
//   - barrier epoch == current epoch and the counts still differ (with no
//     migration in flight to explain it): the manifest and the topology
//     disagree about the same era. Refuse with ErrTopologyMismatch.
//   - barrier epoch < current epoch: the barrier predates a completed
//     reshard. Its floors are still sound for the slots both eras share,
//     so verify the overlap — keys that moved since are covered by the
//     migration manifest's own durability, not the old barrier.
func (c *Cluster) verifyBarrier() error {
	info, err := c.readBarrier()
	if err != nil || info == nil {
		return err
	}
	cur := c.table.Epoch()
	shards := c.shardList()
	if info.epoch > cur || (info.epoch == cur && len(info.vec) != len(shards) && !c.table.Migrating()) {
		return &TopologyMismatchError{
			StoredEpoch: info.epoch, CurrentEpoch: cur,
			StoredShards: len(info.vec), CurrentShards: len(shards),
		}
	}
	var errs []error
	for i := 0; i < min(len(info.vec), len(shards)); i++ {
		if got := shards[i].db.Load().recoveredSeq(); got < info.vec[i] {
			errs = append(errs, fmt.Errorf(
				"eunomia: cluster shard %d recovered to LSN %d but the snapshot barrier requires >= %d: acknowledged writes were lost",
				i, got, info.vec[i]))
		}
	}
	return errors.Join(errs...)
}
