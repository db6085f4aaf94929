package eunomia

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"eunomia/internal/shard"
)

// This file is the online resharding engine: Cluster.Reshard changes the
// shard count while sessions keep serving. The paper's core move —
// splitting one contended HTM region into smaller independently-retryable
// pieces — is applied one level up: a contended shard is split into
// smaller independently-serving shards, with the migration running as the
// slow path beside normal routing's fast path.
//
// One migration runs at a time and proceeds move by move (a move is one
// ownership interval, enumerated by shard.EnumerateMoves). Per move:
//
//  1. Copy: snapshot-iterate the source's slice of the interval into the
//     destination. Concurrent writes to the interval are tracked in the
//     migration's dirty set (Session.routed notes them under the shared
//     side of the migration fence).
//  2. Catch-up: bounded drain passes re-read each dirty key from the
//     source and re-apply it to the destination, shrinking the window.
//  3. Cutover: take the fence exclusively (no operation is mid-flight on
//     the interval), drain the dirty set exactly, journal the new cut
//     watermark in the migration manifest, then flip the routing table.
//     The fence is held for one final drain plus one manifest commit —
//     the interval's only unavailability window.
//  4. Purge: once every scan that froze a pre-cutover routing view has
//     finished, delete the source's stale copies.
//
// Crash safety: the manifest (tmp+fsync+rename+dir-fsync, like every
// other manifest here) journals the cut and purge watermarks, so a crash
// at any IO point resumes exactly where authority stood: un-cut moves
// restart their copy (with a destination scrub, since the in-memory dirty
// set died with the process), cut-but-unpurged moves re-run their purge,
// and a crash between the final topology commit and manifest removal is
// recognized by the topology file's newer epoch.

// ErrMoved reports an operation whose key's ownership changed more times
// mid-flight than the redirect limit allows. Ops redirect transparently
// across a cutover; only topology churn outrunning the limit surfaces
// this.
var ErrMoved = errors.New("eunomia: key moved during operation")

// ErrReshardInProgress reports a Reshard call while a migration (possibly
// one resumed from a crash) is still running.
var ErrReshardInProgress = errors.New("eunomia: reshard already in progress")

// ErrTopologyMismatch reports a store whose recorded topology contradicts
// what the caller asked for (or, for a barrier from the cluster's future,
// what the store itself says). Match with errors.Is; the concrete
// *TopologyMismatchError carries the two sides.
var ErrTopologyMismatch = errors.New("eunomia: cluster topology mismatch")

// TopologyMismatchError reports the stored vs. requested/current topology
// behind an ErrTopologyMismatch.
type TopologyMismatchError struct {
	StoredEpoch, CurrentEpoch   uint64
	StoredShards, CurrentShards int
}

func (e *TopologyMismatchError) Error() string {
	return fmt.Sprintf(
		"eunomia: cluster topology mismatch: store has %d shards at epoch %d, caller/current has %d at epoch %d (open with Shards:0 to adopt the stored topology, or Reshard to change it)",
		e.StoredShards, e.StoredEpoch, e.CurrentShards, e.CurrentEpoch)
}

// Is makes every TopologyMismatchError match ErrTopologyMismatch.
func (e *TopologyMismatchError) Is(target error) bool { return target == ErrTopologyMismatch }

// ReshardOptions configures the migration engine.
type ReshardOptions struct {
	// CutBeforeCatchup DELIBERATELY skips the catch-up drains: intervals
	// cut over with whatever the bulk copy happened to see, so writes
	// accepted during the copy window are silently missing from the new
	// owner. Exists only so the crash fuzzer can prove the checker catches
	// a broken cutover protocol. Never enable outside tests.
	CutBeforeCatchup bool
}

// migration is one in-flight topology change's shared state.
type migration struct {
	from, to shard.Router
	moves    []shard.Move

	// fence is the copy/cutover synchronization: operations on un-cut
	// moving keys hold the read side for their whole execution; the
	// engine takes the write side for each interval's final drain +
	// cutover, so authority never flips under a mid-flight op.
	fence sync.RWMutex

	mu    sync.Mutex
	dirty map[uint64]struct{} // keys written during the active move's copy

	cut    int // moves [0, cut) have flipped to their destinations
	purged int // moves [0, purged) also had their source copies deleted
	// cutGen is the routing generation installed by the latest cutover
	// (or by BeginReshard on resume): a merged scan frozen at an earlier
	// generation may still route this migration's moved keys to their
	// sources, so purges wait for those scans to drain.
	cutGen uint64

	// done closes when the engine goroutine ends, err holding why. stall
	// carries the error of a step that has gone reshardStallFactor ×
	// Repair.MaxBackoff without succeeding: Reshard stops waiting on it
	// while the engine keeps retrying (capacity 1 — only the first report
	// has a reader).
	done  chan struct{}
	err   error
	stall chan error
}

func newMigration(from, to shard.Router, cut, purged int) *migration {
	return &migration{
		from:   from,
		to:     to,
		moves:  shard.EnumerateMoves(from, to),
		dirty:  map[uint64]struct{}{},
		cut:    cut,
		purged: purged,
		done:   make(chan struct{}),
		stall:  make(chan error, 1),
	}
}

// finish records the engine's outcome and releases whoever waits on done.
func (m *migration) finish(err error) {
	m.err = err
	close(m.done)
}

// note records a write to the interval currently being copied; the
// catch-up drains re-read the key from the source and re-apply it.
func (m *migration) note(key uint64) {
	m.mu.Lock()
	m.dirty[key] = struct{}{}
	m.mu.Unlock()
}

// swapDirty takes the whole dirty set, installing a fresh one. Any write
// landing after the swap notes into the fresh set and is picked up by a
// later pass; the fenced final pass runs with no concurrent writers, so
// one swap there empties the set exactly.
func (m *migration) swapDirty() map[uint64]struct{} {
	m.mu.Lock()
	d := m.dirty
	m.dirty = map[uint64]struct{}{}
	m.mu.Unlock()
	return d
}

// Reshard changes the cluster to n shards online: sessions keep serving
// throughout, with each key interval unavailable only for its own brief
// fenced cutover. Blocks until the migration completes or fails; at most
// one topology change runs at a time (ErrReshardInProgress otherwise —
// including a migration resumed from a crash that is still catching up).
// Must not be called from inside a Range/Scan loop on the same goroutine:
// the engine waits for live scans before retiring data.
//
// Every step the engine retries — a copy, a purge, a journal write — it
// retries with capped backoff for as long as the cluster is open, but
// Reshard does not wait forever: once one step has gone reshardStallFactor
// × Repair.MaxBackoff without succeeding it returns an error naming the
// step and wrapping its cause (ErrShardUnavailable for a shard that stays
// down, the disk's error for a manifest that cannot be written), and the
// migration carries on in the background as one resumed by OpenCluster
// does: Migrating stays true until it lands, and Close stops it.
//
// On a durable cluster the migration journals its progress in a manifest
// next to the barrier, so a crash at any point — including mid-copy,
// mid-cutover, or between the final topology commit and cleanup — is
// resumed (or recognized as complete) by the next OpenCluster.
func (c *Cluster) Reshard(n int) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if n < 1 || n > maxClusterShards {
		return fmt.Errorf("eunomia: reshard to %d shards (want 1..%d)", n, maxClusterShards)
	}
	if !c.reshardMu.TryLock() {
		return ErrReshardInProgress
	}
	defer c.reshardMu.Unlock()
	if c.mig.Load() != nil || c.table.Migrating() {
		return ErrReshardInProgress
	}
	v := c.table.View()
	cur := v.Shards()
	if n == cur {
		return nil
	}
	// Never migrate off — or onto — a tripped shard: the engine would
	// immediately stall against the breaker, holding the topology in its
	// least legible state. Let repair win first.
	for i := 0; i < cur; i++ {
		if err := c.shardReady(i); err != nil {
			return fmt.Errorf("eunomia: reshard: %w", err)
		}
	}
	from := v.Target()
	to := shard.New(n, from.Partition())
	// A split opens the destination slots before anything is journaled (a
	// crash here leaves only empty directories, which the next split wipes
	// again; wiping first clears debris from a migration that completed —
	// and retired these slots — but crashed before cleanup). They are NOT
	// published into the serving slice yet: a failed manifest write below
	// must leave Shards()/Metrics reporting the topology that actually
	// serves, and must not leave open DB handles behind for a retry's wipe
	// to pull the rug from under.
	var opened []*clusterShard
	for i := cur; i < n; i++ {
		sh, err := c.openShard(i, true)
		if err != nil {
			return closeAfter(fmt.Errorf("eunomia: reshard: open shard %d: %w", i, err), opened)
		}
		opened = append(opened, sh)
	}
	m := newMigration(from, to, 0, 0)
	if c.dir != "" {
		if err := c.writeReshardManifest(m, 0, 0); err != nil {
			// Nothing routed or published yet: abandon cleanly, closing the
			// slots opened above (their wiped-then-empty directories are
			// harmless debris a later split wipes again).
			return closeAfter(fmt.Errorf("eunomia: reshard: manifest: %w", err), opened)
		}
	}
	// The engine goroutine publishes the destination slots and installs the
	// migration view itself: by then Close is bound to wait for it, so a
	// racing Close closes the new slots with the rest. When spawn refuses
	// (the cluster closed first) nothing was published, and the manifest
	// committed above is resumed by the next OpenCluster, as after a Close
	// mid-flight.
	if !c.spawn(func() error {
		if len(opened) > 0 {
			grown := append(slices.Clip(c.shardList()), opened...)
			c.shards.Store(&grown)
		}
		c.mig.Store(m)
		m.cutGen = c.table.BeginReshard(to, 0).Gen
		return c.runMigration(m, false)
	}, m.finish) {
		return closeAfter(ErrClosed, opened)
	}
	select {
	case <-m.done:
		return m.err
	case err := <-m.stall:
		return err
	}
}

// runMigration drives one migration to completion (or to cluster close,
// leaving the manifest for the next incarnation to resume).
func (c *Cluster) runMigration(m *migration, resumed bool) error {
	// Grace period: an operation that loaded a stable pre-migration view
	// took the fenceless fast path, so one delayed between routing and its
	// tree write could land on a source shard after its interval was
	// copied, drained, and cut over — an acknowledged write the new owner
	// never sees (and, on a merge, an index into a since-truncated shard
	// slice). Quiesce every registered session before the first copy or
	// purge: anything routed after this observes the migration view and
	// either takes the fence or is safe fenceless.
	c.quiesceSessions()
	// Purge backlog first: moves already cut over in a previous life may
	// still hold stale source copies.
	for mi := m.purged; mi < m.cut; mi++ {
		if err := c.purgeMove(m, mi); err != nil {
			return err
		}
	}
	for mi := m.cut; mi < len(m.moves); mi++ {
		// A resumed migration's active move restarts with a destination
		// scrub: the dirty set died with the previous process, so a
		// partially-caught-up destination may hold stale values (or
		// resurrected deletes) the fresh copy would not overwrite.
		if err := c.copyMove(m, mi, resumed && mi == m.cut); err != nil {
			return err
		}
		if err := c.purgeMove(m, mi); err != nil {
			return err
		}
		c.movesDone.Add(1)
	}
	return c.finalizeReshard(m)
}

// copyMove runs move mi's copy + catch-up + fenced cutover, retrying
// through transient failures (each attempt re-checks both breakers and
// re-threads against the current DBs, since repair swaps them).
func (c *Cluster) copyMove(m *migration, mi int, scrub bool) error {
	mv := m.moves[mi]
	return c.retry(m, fmt.Sprintf("copy of move %d", mi), time.Millisecond, func() error {
		if err := errors.Join(c.shardReady(mv.Src), c.shardReady(mv.Dst)); err != nil {
			return err
		}
		err := c.tryCopyMove(m, mi, scrub)
		// Any retry re-scrubs: a delete tracked only in the dirty set may
		// have been lost by the failed attempt, leaving a resurrected key
		// on the destination that a plain re-copy would never remove.
		scrub = true
		return err
	})
}

// tryCopyMove is one copy attempt for move mi. Shard failures are scored
// against the owning breaker (tripping it engages repair) and returned.
func (c *Cluster) tryCopyMove(m *migration, mi int, scrub bool) error {
	mv := m.moves[mi]
	dst := c.shard(mv.Dst)
	sth, dth := c.shard(mv.Src).db.Load().NewThread(), dst.db.Load().NewThread()
	defer sth.Close()
	defer dth.Close()
	v := c.table.View()
	if scrub {
		if err := c.deleteMove(dth, v, mi); err != nil {
			return c.shardFailed(dst, err)
		}
	}
	// Bulk copy. Writers race this scan freely; everything they touch is
	// in the dirty set and re-applied by the drains below.
	if err := c.copyInterval(sth, dth, v, mi); err != nil {
		return err
	}
	if !c.opts.Reshard.CutBeforeCatchup {
		// Bounded pre-fence drains shrink the dirty window so the fenced
		// final drain — the only part writers wait on — is near-empty.
		for pass := 0; pass < 8; pass++ {
			n, err := c.drainDirty(m, sth, dth, mv)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
		}
	}
	return c.cutOver(m, mi, sth, dth)
}

// cutOver is move mi's fenced end: the exact final drain, the journal
// entry, the routing flip. The fence is released however it ends, a panic
// in the manifest's filesystem included — writers are parked on it.
func (c *Cluster) cutOver(m *migration, mi int, sth, dth *Thread) error {
	m.fence.Lock()
	defer m.fence.Unlock()
	if !c.opts.Reshard.CutBeforeCatchup {
		// The fence excludes writers, so one pass empties the set.
		if _, err := c.drainDirty(m, sth, dth, m.moves[mi]); err != nil {
			return err
		}
	}
	if c.dir != "" {
		// Journal the cut before flipping routing: a crash after the
		// manifest commit resumes with the destination authoritative —
		// which is sound, because the drain above already completed. The
		// reverse order could ack post-flip writes on the destination and
		// then resume routing to a source that never saw them. Single
		// attempt: writers are blocked on the fence, so a dead manifest
		// disk must fail the attempt, not hold the cluster.
		if err := c.writeReshardManifest(m, mi+1, m.purged); err != nil {
			return err
		}
	}
	m.swapDirty() // next move starts with a clean set
	nv := c.table.CutOver(mi)
	m.cut = mi + 1
	m.cutGen = nv.Gen
	return nil
}

// copyInterval pages move mi's keys (under view v) from source to
// destination, scoring a failed read against the source and a failed
// write against the destination.
func (c *Cluster) copyInterval(sth, dth *Thread, v *shard.View, mi int) error {
	mv := v.Moves()[mi]
	var putErr error
	err := c.scanInterval(sth, mv.Lo, mv.Hi, func(k, val uint64) error {
		if ami, ok := v.MoveOf(k); ok && ami == mi {
			putErr = dth.Put(k, val)
		}
		return putErr
	})
	switch {
	case err == nil || c.closed.Load():
		return err
	case putErr != nil:
		return c.shardFailed(c.shard(mv.Dst), putErr)
	}
	return c.shardFailed(c.shard(mv.Src), err)
}

// deleteMove deletes every key of move mi (under view v) from th's shard:
// the purge of a cut-over move's source, the scrub of a restarted move's
// destination. Idempotent — a crashed or failed pass just re-runs.
func (c *Cluster) deleteMove(th *Thread, v *shard.View, mi int) error {
	mv := v.Moves()[mi]
	return c.scanInterval(th, mv.Lo, mv.Hi, func(k, _ uint64) error {
		if ami, ok := v.MoveOf(k); !ok || ami != mi {
			return nil
		}
		_, err := th.Delete(k)
		return err
	})
}

// scanInterval visits every key in [lo, hi] on th in full-size pages,
// applying fn after each page is read (fn may mutate th's shard — pages
// re-anchor by key, not position).
func (c *Cluster) scanInterval(th *Thread, lo, hi uint64, fn func(k, v uint64) error) error {
	var pg scanPager
	pg.init()
	pg.reset(lo, hi, clusterRangeBatch)
	for !pg.done {
		if c.closed.Load() {
			return ErrClosed
		}
		if err := pg.next(th); err != nil {
			return err
		}
		for _, p := range pg.page {
			if err := fn(p.k, p.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainDirty takes the current dirty set and re-applies each key's
// present source state to the destination (Put if present, Delete if
// not) — order-free, because the value is re-read at drain time rather
// than replayed from a log. Returns how many keys were drained. On
// error the un-applied keys are lost from tracking; the caller's retry
// re-scrubs, which re-establishes them from the source wholesale.
func (c *Cluster) drainDirty(m *migration, sth, dth *Thread, mv shard.Move) (int, error) {
	d := m.swapDirty()
	for k := range d {
		val, ok, err := sth.Get(k)
		if err != nil {
			return 0, c.shardFailed(c.shard(mv.Src), err)
		}
		if ok {
			err = dth.Put(k, val)
		} else {
			_, err = dth.Delete(k)
		}
		if err != nil {
			return 0, c.shardFailed(c.shard(mv.Dst), err)
		}
	}
	return len(d), nil
}

// purgeMove deletes move mi's stale source copies once no live scan can
// still be routing the interval's reads to the source, then journals the
// purge watermark.
func (c *Cluster) purgeMove(m *migration, mi int) error {
	what := fmt.Sprintf("purge of move %d", mi)
	if err := c.waitScansBefore(m, m.cutGen); err != nil {
		return err
	}
	err := c.retry(m, what, time.Millisecond, func() error {
		if err := c.shardReady(m.moves[mi].Src); err != nil {
			return err
		}
		src := c.shard(m.moves[mi].Src)
		sth := src.db.Load().NewThread()
		defer sth.Close()
		err := c.deleteMove(sth, c.table.View(), mi)
		if err != nil && !errors.Is(err, ErrClosed) {
			return c.shardFailed(src, err)
		}
		return err
	})
	if err == nil && c.dir != "" {
		err = c.retry(m, "journal of the "+what, time.Millisecond, func() error {
			return c.writeReshardManifest(m, m.cut, mi+1)
		})
	}
	if err == nil {
		m.purged = mi + 1
	}
	return err
}

// finalizeReshard commits the new topology, retires merged-away slots,
// and removes the migration manifest. Order matters: the topology file's
// epoch bump is the migration's commit point — a crash after it (before
// manifest removal) is recognized by resolveTopology as "complete, drop
// the manifest".
func (c *Cluster) finalizeReshard(m *migration) error {
	if c.dir != "" {
		if err := c.retry(m, "topology commit", time.Millisecond, func() error {
			return c.writeTopology(c.table.Epoch()+1, m.to.Shards(), m.to.Partition())
		}); err != nil {
			return err
		}
	}
	fin := c.table.Finish()
	// Scans frozen on a migration-era view may still read retiring slots
	// (and rely on stale copies the view routes them to): let them drain
	// before anything is closed or wiped.
	if err := c.waitScansBefore(m, fin.Gen); err != nil {
		// Closing: the topology is committed; only cleanup is skipped,
		// and the retired slots' debris is wiped by a future split.
		c.mig.Store(nil)
		return err
	}
	list := c.shardList()
	if fin.Shards() < len(list) {
		kept := slices.Clone(list[:fin.Shards()])
		c.shards.Store(&kept)
		for _, sh := range list[fin.Shards():] {
			if db := sh.db.Load(); db != nil {
				db.Close()
			}
			if sh.opts.Durability.Dir != "" {
				c.wipeDir(sh.opts.Durability.Dir)
			}
		}
	}
	if c.dir != "" {
		c.fs.Remove(c.dir + "/" + reshardFile)
		c.fs.SyncDir(c.dir)
	}
	c.mig.Store(nil)
	return nil
}

// shardReady reports whether shard i's breaker admits the engine: nil,
// or the fail-fast error — wrapping errShardGone when the shard is
// permanently failed (its disk rolled back past the durable watermark),
// which no amount of retrying outlasts.
func (c *Cluster) shardReady(i int) error {
	sh := c.shard(i)
	switch {
	case !c.healthOn || sh.health.Allow():
		return nil
	case sh.health.Permanent():
		return fmt.Errorf("%w: %w", errShardGone, c.unavailable(i))
	}
	return c.unavailable(i)
}

// quiesceSessions waits, one session at a time, for every operation in
// flight at the time of the call to finish: each registered Session's
// guard is taken exclusively once and released. Sessions created after
// the registry snapshot route under the already-installed migration view
// (NewSession's registration orders after BeginReshard's store through
// sessMu), so a rolling barrier suffices — the property needed is only
// that no operation which routed under a pre-migration view is still in
// flight once this returns.
func (c *Cluster) quiesceSessions() {
	c.sessMu.Lock()
	sess := make([]*Session, 0, len(c.sessions))
	for s := range c.sessions {
		sess = append(sess, s)
	}
	c.sessMu.Unlock()
	for _, s := range sess {
		s.guard.Lock()
		s.guard.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}
}

// scanFreeze freezes a routing view for a merged scan and registers its
// generation in s.scanGen before it trusts the view: a cutover plus purge
// landing between a View load and the registration would miss this scan.
// If the table still reports the registered generation, any later purge
// wait sees the registration (atomics are sequentially consistent, and the
// engine installs a view before it waits); if not, it re-freezes. A scan
// nested in another on the same Session is covered by the outer one's
// older registration (outer false), and leaves scanGen be.
func (s *Session) scanFreeze() (v *shard.View, outer bool) {
	if s.scanGen.Load() != 0 {
		return s.c.table.View(), false
	}
	for {
		v := s.c.table.View()
		s.scanGen.Store(v.Gen)
		if s.c.table.Gen() == v.Gen {
			return v, true
		}
	}
}

// waitScansBefore blocks until no Session's scan froze a view older than
// gen (ErrClosed on close).
func (c *Cluster) waitScansBefore(m *migration, gen uint64) error {
	return c.retry(m, "wait for scans on a pre-cutover view", time.Millisecond, func() error {
		c.sessMu.Lock()
		defer c.sessMu.Unlock()
		for s := range c.sessions {
			if g := s.scanGen.Load(); g != 0 && g < gen {
				return errScansLive
			}
		}
		return nil
	})
}

var errScansLive = errors.New("eunomia: merged scans frozen on an older routing view are still running")

// --- topology resolution ---------------------------------------------

// wipeDir empties dir (creating it if missing) and fsyncs the entry
// removals — used before opening a fresh destination slot and after
// retiring a merged-away one.
func (c *Cluster) wipeDir(dir string) error {
	if err := c.fs.MkdirAll(dir); err != nil {
		return err
	}
	names, err := c.fs.List(dir)
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := c.fs.Remove(dir + "/" + n); err != nil {
			return err
		}
	}
	return c.fs.SyncDir(dir)
}

// resolveTopology decides the cluster's shape: the stable (pre-migration)
// topology for the routing table, the migration to resume (nil when none
// was in flight), and whether the store itself recorded them — when it did
// not, OpenCluster writes the record, so the count is never again guessed
// from Options after a crash. Precedence: the migration manifest (a
// reshard was in flight), the topology record (written by the first
// durable open and by every completed reshard), the caller's Options.
// Options.Shards == 0 adopts whatever the store says; a non-zero count
// that contradicts the store is a typed ErrTopologyMismatch, never a
// silent reinterpretation, and likewise an explicit partition scheme.
func (c *Cluster) resolveTopology() (top topologyRecord, man *reshardManifest, recorded bool, err error) {
	want := c.opts.Shards
	top = topologyRecord{shards: want, part: c.opts.Partition.internal()}
	var rec *topologyRecord
	if c.dir != "" {
		if rec, err = c.readTopology(); err != nil {
			return top, nil, false, err
		}
		if man, err = c.readReshardManifest(); err != nil {
			return top, nil, false, err
		}
		if man != nil && rec != nil && rec.epoch > man.epoch {
			// The migration committed (topology record written) but the
			// crash hit before manifest removal: it is complete, not
			// resumable.
			c.fs.Remove(c.dir + "/" + reshardFile)
			c.fs.SyncDir(c.dir)
			man = nil
		}
	}
	// stored is the store's stable topology; also is the other count a
	// caller may legitimately know — mid-migration, the destination's.
	var stored topologyRecord
	var also int
	switch {
	case man != nil:
		stored, also = topologyRecord{man.epoch, man.from, man.part}, man.to
	case rec != nil:
		stored, also = *rec, rec.shards
	default:
		if want == 0 {
			top.shards = 4
		}
		return top, nil, false, nil
	}
	if stored.part != top.part && c.opts.Partition != HashPartition {
		return top, nil, false, fmt.Errorf("eunomia: store is %v-partitioned, options say %v: %w",
			stored.part, c.opts.Partition, ErrTopologyMismatch)
	}
	if want != 0 && want != stored.shards && want != also {
		return top, nil, false, &TopologyMismatchError{
			StoredEpoch: stored.epoch, CurrentEpoch: stored.epoch,
			StoredShards: also, CurrentShards: want,
		}
	}
	return stored, man, true, nil
}
