package eunomia

import (
	"errors"

	"eunomia/internal/durable"
	"eunomia/internal/htm"
)

// Durability configures crash durability: a group-committed write-ahead
// log plus periodic snapshots, recovered on Open. A write is acknowledged
// only once it is fsynced: the acknowledging operation that finds no flush
// in progress fsyncs the whole pending batch itself, so concurrent writers
// amortize one fsync. The zero value disables durability entirely (the hot
// path then costs one atomic load and a nil check — no logging, no
// allocation, no virtual ticks).
type Durability struct {
	// Dir enables durability when non-empty: WAL segments and snapshots
	// live in this directory, and Open replays them into the tree before
	// returning.
	Dir string
	// SnapshotBytes triggers an automatic snapshot (with WAL truncation)
	// after that many log bytes. 0 disables automatic snapshots;
	// DB.Snapshot still works.
	SnapshotBytes int64
	// Shards is the number of WAL append files (default 8).
	Shards int
	// FS overrides the filesystem. nil means the operating system; the
	// crash-recovery checker injects a fault-modeling in-memory FS.
	FS durable.FS
}

// ErrClosed is returned by every operation on a closed DB.
var ErrClosed = errors.New("eunomia: db is closed")

// openDurable wires the durability store into a freshly built DB,
// replaying any existing snapshot and WAL through the boot thread.
func (db *DB) openDurable(boot *htm.Thread, d Durability) error {
	st, err := durable.Open(durable.Config{
		FS:            d.FS,
		Dir:           d.Dir,
		Shards:        d.Shards,
		SnapshotBytes: d.SnapshotBytes,
		Observer:      db.observer,
	}, func(op durable.Op) {
		if op.Delete {
			db.kv.Delete(boot, op.Key)
		} else {
			db.kv.Put(boot, op.Key, op.Val)
		}
	})
	if err != nil {
		return err
	}
	db.dur = st
	return nil
}

// durErr maps store-level errors onto the public API's vocabulary.
func durErr(err error) error {
	if errors.Is(err, durable.ErrStoreClosed) {
		return ErrClosed
	}
	return err
}

// scanAll returns a full-tree scan callback for the snapshotter, driven
// through th. It pages through the tree in key order; concurrent writers
// are fine — anything the scan misses is still in the (un-truncated) log.
func (db *DB) scanAll(th *htm.Thread) func(emit func(key, val uint64)) error {
	return func(emit func(key, val uint64)) error {
		const batch = 1024
		from := uint64(0)
		for {
			var last uint64
			n := db.kv.Scan(th, from, batch, func(k, v uint64) bool {
				emit(k, v)
				last = k
				return true
			})
			if n < batch || last == ^uint64(0) {
				return nil
			}
			from = last + 1
		}
	}
}

// maybeSnapshot runs an automatic snapshot on the calling thread if the
// byte threshold has been crossed. Snapshot failures are recorded in
// DurabilityStats but do not fail the triggering operation — nothing has
// been truncated, so durability is unaffected.
func (t *Thread) maybeSnapshot() {
	d := t.db.dur
	if d != nil && d.NeedSnapshot() {
		_ = d.Snapshot(t.db.scanAll(t.th), true)
	}
}

// Sync forces every acknowledged-but-buffered WAL byte to disk. It is a
// no-op without durability.
func (db *DB) Sync() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.dur == nil {
		return nil
	}
	return durErr(db.dur.Sync())
}

// Snapshot captures the whole tree into a snapshot file and truncates the
// WAL segments it covers. Without durability it is a no-op.
func (db *DB) Snapshot() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.dur == nil {
		return nil
	}
	t := db.NewThread()
	defer t.Close()
	return durErr(db.dur.Snapshot(db.scanAll(t.th), false))
}

// Close flushes the WAL and releases the DB. It is idempotent; operations
// on a closed DB return ErrClosed. Without durability Close only marks
// the DB closed.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	if db.dur == nil {
		return nil
	}
	return db.dur.Close()
}

// durableLSN returns the highest WAL LSN known flushed to disk (0 without
// durability). The Cluster's snapshot barrier captures this after a Sync
// to define a per-shard durability cut; the flushed watermark (rather
// than the last assigned LSN) keeps the cut sound with writers running
// concurrently with the barrier.
func (db *DB) durableLSN() uint64 {
	if db.dur == nil {
		return 0
	}
	return db.dur.DurableLSN()
}

// recoveredSeq returns the highest LSN this DB's Open recovered (0
// without durability). The Cluster cross-checks it against the last
// committed barrier vector to detect a shard rolled back behind the
// cluster-wide snapshot.
func (db *DB) recoveredSeq() uint64 {
	if db.dur == nil {
		return 0
	}
	return db.dur.RecoveryInfo().MaxSeq
}

// DurabilityStats reports the durability layer's behavior: group-commit
// batching, flush latency, snapshots, and what recovery replayed.
type DurabilityStats struct {
	// Enabled is false when the DB was opened without durability (all
	// other fields are then zero).
	Enabled bool
	// Group commit.
	Flushes       uint64
	FlushedFrames uint64
	FlushedBytes  uint64
	MaxBatch      uint64  // largest frames-per-fsync batch
	AvgBatch      float64 // mean frames per fsync
	FlushP50Ns    uint64
	FlushP99Ns    uint64
	FlushMaxNs    uint64
	// Snapshots taken (and failed) since Open.
	Snapshots      uint64
	SnapshotErrors uint64
	// Recovery performed by Open.
	RecoveryNs     int64
	SnapshotPairs  uint64 // pairs loaded from the recovered snapshot
	ReplayedFrames uint64 // WAL frames replayed
	TornTails      int    // log files truncated at a torn/corrupt frame
}

// durabilityMetrics builds the Metrics.Durability section.
func (db *DB) durabilityMetrics() DurabilityStats {
	if db.dur == nil {
		return DurabilityStats{}
	}
	s := db.dur.Stats()
	return DurabilityStats{
		Enabled:        true,
		Flushes:        s.Flushes,
		FlushedFrames:  s.FlushedFrames,
		FlushedBytes:   s.FlushedBytes,
		MaxBatch:       s.MaxBatch,
		AvgBatch:       s.AvgBatch,
		FlushP50Ns:     s.FlushP50Ns,
		FlushP99Ns:     s.FlushP99Ns,
		FlushMaxNs:     s.FlushMaxNs,
		Snapshots:      s.Snapshots,
		SnapshotErrors: s.SnapshotErrors,
		RecoveryNs:     s.Recovery.DurationNs,
		SnapshotPairs:  s.Recovery.SnapshotPairs,
		ReplayedFrames: s.Recovery.ReplayedFrames,
		TornTails:      s.Recovery.TornTails,
	}
}
