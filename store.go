package eunomia

import "iter"

// Store is the single database abstraction of the package: one interface
// satisfied by both a single-tree *DB and a sharded *Cluster, so servers,
// harnesses and examples can program against one type and switch between
// a single tree and a partitioned cluster with a constructor swap.
//
// Store methods are safe for concurrent use. Per-worker operations go
// through Handles (one per worker goroutine), exactly like DB.NewThread
// and Cluster.NewSession — which remain available when code needs the
// concrete types' extras (RunVirtual, Reshard, per-shard metrics).
type Store interface {
	// NewHandle creates a per-worker operation handle. Handles are cheap;
	// create one per worker goroutine and Close it when the worker ends.
	NewHandle() Handle
	// Sync forces every acknowledged-but-buffered WAL byte to disk (no-op
	// without durability).
	Sync() error
	// Snapshot captures the full keyspace and truncates covered WAL
	// segments (no-op without durability). On a Cluster the snapshot is
	// cluster-wide consistent (barrier manifest + per-shard snapshots).
	Snapshot() error
	// Metrics returns the unified counter snapshot. On a Cluster it is
	// the cross-shard aggregate; use Cluster.ClusterMetrics for the
	// per-shard breakdown.
	Metrics() Metrics
	// Close flushes and releases the store. Idempotent; operations on a
	// closed store return ErrClosed.
	Close() error
}

// Handle is a per-worker operation handle minted by Store.NewHandle:
// a *Thread for a DB, a *Session for a Cluster. A Handle must be used by
// one goroutine at a time.
type Handle interface {
	// Get returns the value stored under key.
	Get(key uint64) (uint64, bool, error)
	// Put inserts or updates key. With durability enabled it returns only
	// after the operation is on disk.
	Put(key, val uint64) error
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) (bool, error)
	// Scan visits up to max keys >= from in ascending order, stopping
	// early if fn returns false, and returns the number visited: the keys
	// fn returned true for.
	Scan(from uint64, max int, fn func(key, val uint64) bool) (int, error)
	// Range iterates the pairs in [from, to] ascending (range-over-func).
	Range(from, to uint64) iter.Seq2[uint64, uint64]
	// Close releases the handle, which must not be used afterwards. A DB
	// Thread's Close folds the statistics the thread has batched into the
	// DB's Metrics (a handle reports only every 64 operations otherwise);
	// a Cluster Session's Close does that for its per-shard Threads and
	// unregisters the Session from the resharding engine's quiesce
	// barrier. Call it when the worker ends.
	Close() error
}

// Both concrete stores satisfy the unified API.
var (
	_ Store  = (*DB)(nil)
	_ Store  = (*Cluster)(nil)
	_ Handle = (*Thread)(nil)
	_ Handle = (*Session)(nil)
)

// NewHandle returns a new worker Thread as a Handle.
func (db *DB) NewHandle() Handle { return db.NewThread() }

// Close releases the Thread: it folds the statistics the thread has
// batched since its last report into the DB's Metrics, so a short-lived
// handle is counted. The Thread must not be used afterwards. Closing twice
// is harmless.
func (t *Thread) Close() error {
	t.th.FlushStats()
	return nil
}

// NewHandle returns a new worker Session as a Handle.
func (c *Cluster) NewHandle() Handle { return c.NewSession() }
