package eunomia

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
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
	var errs []error
	for i, sh := range c.shardList() {
		if c.healthOn && !sh.health.Allow() {
			errs = append(errs, fmt.Errorf("eunomia: cluster shard %d sync: %w", i, c.unavailable(i)))
			continue
		}
		if err := sh.db.Load().Sync(); err != nil {
			errs = append(errs, fmt.Errorf("eunomia: cluster shard %d sync: %w", i, c.scoreMaintErr(sh, err)))
		} else if c.healthOn {
			sh.health.RecordSuccess()
		}
	}
	return errors.Join(errs...)
}

// scoreMaintErr records a maintenance-path (Sync/Snapshot) failure
// against the shard's breaker and returns the error to surface.
func (c *Cluster) scoreMaintErr(sh *clusterShard, err error) error {
	if !c.healthOn {
		return err
	}
	cause := c.causeOf(err)
	if sh.health.RecordFailure(cause, false) {
		c.tripped(sh)
	}
	return &ShardError{Shard: sh.idx, State: ShardState(sh.health.State()), Cause: cause}
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
	var errs []error
	excluded := uint64(0)
	for i, sh := range shards {
		if c.healthOn && !sh.health.Allow() {
			excluded |= 1 << uint(i)
			errs = append(errs, fmt.Errorf("eunomia: cluster shard %d snapshot: %w", i, c.unavailable(i)))
			continue
		}
		if err := sh.db.Load().Sync(); err != nil {
			err = fmt.Errorf("eunomia: cluster shard %d sync: %w", i, c.scoreMaintErr(sh, err))
			if !c.healthOn {
				return errors.Join(append(errs, err)...)
			}
			excluded |= 1 << uint(i)
			errs = append(errs, err)
		} else if c.healthOn {
			sh.health.RecordSuccess()
		}
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
			errs = append(errs, fmt.Errorf("eunomia: cluster shard %d snapshot: %w", i, c.scoreMaintErr(sh, err)))
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
	// Barrier: any startRepair in flight has either registered with the
	// WaitGroup (Wait covers it) or will observe closed and stand down.
	c.repairMu.Lock()
	c.repairMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(c.stop)
	c.repairWG.Wait()
	c.migWG.Wait()
	return errors.Join(closeAll(c.shardList())...)
}

// barrierFile is the manifest's name in the cluster root.
const barrierFile = "cluster-barrier"

// writeBarrier commits the barrier LSN vector crash-atomically. The v3
// header carries the topology epoch so a barrier taken before (or during)
// a reshard is interpretable after it completes; the exclusion set
// (Failed shards carried at their last known floor) rides in the same
// header.
func (c *Cluster) writeBarrier(vec []uint64, excluded uint64) error {
	id := c.snapID.Add(1)
	var b strings.Builder
	fmt.Fprintf(&b, "euno-cluster-barrier v3 id=%d epoch=%d shards=%d excluded=%d\n", id, c.table.Epoch(), len(vec), excluded)
	for i, lsn := range vec {
		fmt.Fprintf(&b, "%d %d\n", i, lsn)
	}
	return c.commitFile(barrierFile, b.String())
}

// barrierInfo is a parsed barrier manifest: the durable-LSN floor vector
// plus the header's topology context.
type barrierInfo struct {
	vec      []uint64
	epoch    uint64 // topology epoch the barrier was taken under (0 for v1/v2)
	excluded uint64
}

// readBarrier loads the barrier manifest; a missing manifest returns
// (nil, nil) — no barrier has ever committed, so there is nothing to
// verify against. v1 and v2 headers (pre-resharding formats) load as
// epoch 0; verification decides what a shard-count difference means, not
// the parser.
func (c *Cluster) readBarrier() (*barrierInfo, error) {
	names, err := c.fs.List(c.dir)
	if err != nil {
		return nil, err
	}
	found := false
	for _, n := range names {
		if n == barrierFile {
			found = true
			break
		}
	}
	if !found {
		return nil, nil
	}
	f, err := c.fs.Open(c.dir + "/" + barrierFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil, fmt.Errorf("eunomia: cluster barrier manifest empty")
	}
	var id uint64
	info := &barrierInfo{}
	var n int
	if _, err := fmt.Sscanf(sc.Text(), "euno-cluster-barrier v3 id=%d epoch=%d shards=%d excluded=%d", &id, &info.epoch, &n, &info.excluded); err != nil {
		if _, err := fmt.Sscanf(sc.Text(), "euno-cluster-barrier v2 id=%d shards=%d excluded=%d", &id, &n, &info.excluded); err != nil {
			if _, err := fmt.Sscanf(sc.Text(), "euno-cluster-barrier v1 id=%d shards=%d", &id, &n); err != nil {
				return nil, fmt.Errorf("eunomia: cluster barrier manifest header %q: %v", sc.Text(), err)
			}
		}
	}
	info.vec = make([]uint64, n)
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("eunomia: cluster barrier manifest truncated at shard %d", i)
		}
		var idx int
		var lsn uint64
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &idx, &lsn); err != nil || idx != i {
			return nil, fmt.Errorf("eunomia: cluster barrier manifest line %q", sc.Text())
		}
		info.vec[i] = lsn
	}
	if id > c.snapID.Load() {
		c.snapID.Store(id)
	}
	return info, sc.Err()
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
	if info.epoch > cur {
		return &TopologyMismatchError{
			StoredEpoch: info.epoch, CurrentEpoch: cur,
			StoredShards: len(info.vec), CurrentShards: len(shards),
		}
	}
	if info.epoch == cur && len(info.vec) != len(shards) && !c.table.Migrating() {
		return &TopologyMismatchError{
			StoredEpoch: info.epoch, CurrentEpoch: cur,
			StoredShards: len(info.vec), CurrentShards: len(shards),
		}
	}
	n := len(info.vec)
	if len(shards) < n {
		n = len(shards)
	}
	var errs []error
	for i := 0; i < n; i++ {
		if got := shards[i].db.Load().recoveredSeq(); got < info.vec[i] {
			errs = append(errs, fmt.Errorf(
				"eunomia: cluster shard %d recovered to LSN %d but the snapshot barrier requires >= %d: acknowledged writes were lost",
				i, got, info.vec[i]))
		}
	}
	return errors.Join(errs...)
}
