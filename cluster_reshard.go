package eunomia

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
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

// AutoSplitOptions configures the hot-shard watcher: a background loop
// that samples per-shard op counts and triggers Reshard(n+1) when one
// shard runs disproportionately hot.
type AutoSplitOptions struct {
	// Enable turns the watcher on (off by default).
	Enable bool
	// MaxShards caps automatic growth (default 16, hard cap 64).
	MaxShards int
	// HotFactor is the trigger ratio: split when the hottest shard served
	// more than HotFactor times the mean of the other shards over the
	// last window (default 4).
	HotFactor int
	// MinOps is the minimum cluster-wide ops per window before the
	// watcher acts at all — an idle cluster is never "hot" (default 4096).
	MinOps uint64
	// Interval is the sampling window (default 500ms).
	Interval time.Duration
}

func (o AutoSplitOptions) withDefaults() AutoSplitOptions {
	if o.MaxShards == 0 {
		o.MaxShards = 16
	}
	if o.MaxShards > 64 {
		o.MaxShards = 64
	}
	if o.HotFactor == 0 {
		o.HotFactor = 4
	}
	if o.MinOps == 0 {
		o.MinOps = 4096
	}
	if o.Interval == 0 {
		o.Interval = 500 * time.Millisecond
	}
	return o
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

	done chan struct{}
	err  error
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
	}
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
// fenced cutover. Blocks until the migration completes (or fails); at
// most one topology change runs at a time (ErrReshardInProgress
// otherwise — including a migration resumed from a crash that is still
// catching up). Must not be called from inside a Range/Scan loop on the
// same goroutine: the engine waits for live scans before retiring data.
//
// On a durable cluster the migration journals its progress in a manifest
// next to the barrier, so a crash at any point — including mid-copy,
// mid-cutover, or between the final topology commit and cleanup — is
// resumed (or recognized as complete) by the next OpenCluster.
func (c *Cluster) Reshard(n int) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if n < 1 || n > 64 {
		return fmt.Errorf("eunomia: reshard to %d shards (want 1..64)", n)
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
		if c.healthOn && !c.shard(i).health.Allow() {
			return fmt.Errorf("eunomia: reshard: %w", c.unavailable(i))
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
	if n > cur {
		for i := cur; i < n; i++ {
			o := c.opts.Shard
			if o.Durability.Dir != "" {
				o.Durability.Dir = shardDirName(c.dir, i)
				if err := c.wipeDir(o.Durability.Dir); err != nil {
					err = fmt.Errorf("eunomia: reshard: wipe shard %d: %w", i, err)
					return errors.Join(append([]error{err}, closeAll(opened)...)...)
				}
			}
			if c.opts.PerShard != nil {
				c.opts.PerShard(i, &o)
			}
			db, err := Open(o)
			if err != nil {
				err = fmt.Errorf("eunomia: reshard: open shard %d: %w", i, err)
				return errors.Join(append([]error{err}, closeAll(opened)...)...)
			}
			sh := &clusterShard{idx: i, opts: o, health: shard.NewHealth(c.healthCfg)}
			sh.db.Store(db)
			opened = append(opened, sh)
		}
	}
	m := newMigration(from, to, 0, 0)
	if c.dir != "" {
		if err := c.writeReshardManifest(m, 0, 0); err != nil {
			// Nothing routed or published yet: abandon cleanly, closing the
			// slots opened above (their wiped-then-empty directories are
			// harmless debris a later split wipes again).
			err = fmt.Errorf("eunomia: reshard: manifest: %w", err)
			return errors.Join(append([]error{err}, closeAll(opened)...)...)
		}
	}
	// Register the engine goroutine under the same closed re-check barrier
	// startRepair uses: Close's migWG.Wait either observes this Add, or we
	// observe closed here and stand down — an Add racing a Wait-at-zero is
	// documented WaitGroup misuse. A manifest already committed above is
	// fine on the stand-down path: the next OpenCluster resumes the
	// migration, exactly as after a Close mid-flight.
	c.repairMu.Lock()
	if c.closed.Load() {
		c.repairMu.Unlock()
		return errors.Join(append([]error{ErrClosed}, closeAll(opened)...)...)
	}
	c.migWG.Add(1)
	c.repairMu.Unlock()
	if len(opened) > 0 {
		list := c.shardList()
		grown := make([]*clusterShard, 0, n)
		grown = append(grown, list...)
		grown = append(grown, opened...)
		c.shards.Store(&grown)
	}
	c.mig.Store(m)
	m.cutGen = c.table.BeginReshard(to, 0).Gen
	go c.runMigration(m, false)
	<-m.done
	return m.err
}

// runMigration drives one migration to completion (or to cluster close,
// leaving the manifest for the next incarnation to resume).
func (c *Cluster) runMigration(m *migration, resumed bool) {
	defer c.migWG.Done()
	defer close(m.done)
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
		if !c.purgeMove(m, mi) {
			m.err = c.migAborted()
			return
		}
	}
	for mi := m.cut; mi < len(m.moves); mi++ {
		// A resumed migration's active move restarts with a destination
		// scrub: the dirty set died with the previous process, so a
		// partially-caught-up destination may hold stale values (or
		// resurrected deletes) the fresh copy would not overwrite.
		if !c.copyMove(m, mi, resumed && mi == m.cut) {
			m.err = c.migAborted()
			return
		}
		if !c.purgeMove(m, mi) {
			m.err = c.migAborted()
			return
		}
		c.movesDone.Add(1)
	}
	m.err = c.finalizeReshard(m)
}

// migAborted names why the engine stopped without finishing.
func (c *Cluster) migAborted() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return fmt.Errorf("eunomia: reshard: %w", ErrShardUnavailable)
}

// copyMove runs move mi's copy + catch-up + fenced cutover, retrying
// through transient shard failures (each attempt re-waits both breakers
// and re-threads against the current DBs, since repair swaps them).
// Returns false when the cluster is closing or a shard is permanently
// gone.
func (c *Cluster) copyMove(m *migration, mi int, scrub bool) bool {
	for attempt := 0; ; attempt++ {
		if !c.waitShard(m.moves[mi].Src) || !c.waitShard(m.moves[mi].Dst) {
			return false
		}
		// Any retry re-scrubs: a delete tracked only in the dirty set may
		// have been lost by the failed attempt, leaving a resurrected key
		// on the destination that a plain re-copy would never remove.
		if err := c.tryCopyMove(m, mi, scrub || attempt > 0); err == nil {
			return true
		}
		if !c.sleepUnlessClosed(time.Millisecond) {
			return false
		}
	}
}

// tryCopyMove is one copy attempt for move mi. Shard failures are scored
// against the owning breaker (tripping it engages repair) and returned.
func (c *Cluster) tryCopyMove(m *migration, mi int, scrub bool) error {
	mv := m.moves[mi]
	src, dst := c.shard(mv.Src), c.shard(mv.Dst)
	sdb, ddb := src.db.Load(), dst.db.Load()
	sth, dth := sdb.NewThread(), ddb.NewThread()
	v := c.table.View()
	inMove := func(k uint64) bool {
		ami, ok := v.MoveOf(k)
		return ok && ami == mi
	}
	if scrub {
		if err := c.scanInterval(dth, mv.Lo, mv.Hi, func(k, _ uint64) error {
			if !inMove(k) {
				return nil
			}
			_, err := dth.Delete(k)
			return err
		}); err != nil {
			return c.scoreMaintErr(dst, err)
		}
	}
	// Bulk copy. Writers race this scan freely; everything they touch is
	// in the dirty set and re-applied by the drains below.
	if err := c.copyInterval(sth, dth, mv, inMove); err != nil {
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
	m.fence.Lock()
	if !c.opts.Reshard.CutBeforeCatchup {
		// Exact final drain: the fence excludes writers, so one pass
		// empties the set.
		if _, err := c.drainDirty(m, sth, dth, mv); err != nil {
			m.fence.Unlock()
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
			m.fence.Unlock()
			return err
		}
	}
	m.swapDirty() // next move starts with a clean set
	nv := c.table.CutOver(mi)
	m.cut = mi + 1
	m.cutGen = nv.Gen
	m.fence.Unlock()
	return nil
}

// copyInterval pages move mv's keys from source to destination, scoring
// a failed read against the source and a failed write against the
// destination.
func (c *Cluster) copyInterval(sth, dth *Thread, mv shard.Move, inMove func(uint64) bool) error {
	var putErr error
	err := c.scanInterval(sth, mv.Lo, mv.Hi, func(k, val uint64) error {
		if inMove(k) {
			putErr = dth.Put(k, val)
		}
		return putErr
	})
	switch {
	case err == nil || c.closed.Load():
		return err
	case putErr != nil:
		return c.scoreMaintErr(c.shard(mv.Dst), putErr)
	}
	return c.scoreMaintErr(c.shard(mv.Src), err)
}

// scanInterval visits every key in [lo, hi] on th in full-size pages,
// applying fn after each page is read (fn may mutate th's shard — pages
// re-anchor by key, not position).
func (c *Cluster) scanInterval(th *Thread, lo, hi uint64, fn func(k, v uint64) error) error {
	var page []kvPair
	var pg scanPager
	pg.init(func(k, v uint64) { page = append(page, kvPair{k, v}) })
	pg.reset(lo, hi, clusterRangeBatch)
	for !pg.done {
		if c.closed.Load() {
			return ErrClosed
		}
		page = page[:0]
		if err := pg.next(th); err != nil {
			return err
		}
		for _, p := range page {
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
	src, dst := c.shard(mv.Src), c.shard(mv.Dst)
	for k := range d {
		val, ok, err := sth.Get(k)
		if err != nil {
			return 0, c.scoreMaintErr(src, err)
		}
		if ok {
			err = dth.Put(k, val)
		} else {
			_, err = dth.Delete(k)
		}
		if err != nil {
			return 0, c.scoreMaintErr(dst, err)
		}
	}
	return len(d), nil
}

// purgeMove deletes move mi's stale source copies once no live scan can
// still be routing the interval's reads to the source. Retries through
// transient failures; false means closing or permanently failed.
func (c *Cluster) purgeMove(m *migration, mi int) bool {
	if !c.waitScansBefore(m.cutGen) {
		return false
	}
	for {
		if !c.waitShard(m.moves[mi].Src) {
			return false
		}
		if err := c.tryPurgeMove(m, mi); err == nil {
			break
		}
		if !c.sleepUnlessClosed(time.Millisecond) {
			return false
		}
	}
	if c.dir == "" {
		m.purged = mi + 1
		return true
	}
	for {
		if err := c.writeReshardManifest(m, m.cut, mi+1); err == nil {
			m.purged = mi + 1
			return true
		}
		if !c.sleepUnlessClosed(time.Millisecond) {
			return false
		}
	}
}

// tryPurgeMove is one purge attempt: delete every move-mi key from the
// source. Idempotent — a crashed or failed purge just re-runs.
func (c *Cluster) tryPurgeMove(m *migration, mi int) error {
	mv := m.moves[mi]
	src := c.shard(mv.Src)
	sth := src.db.Load().NewThread()
	v := c.table.View()
	err := c.scanInterval(sth, mv.Lo, mv.Hi, func(k, _ uint64) error {
		if ami, ok := v.MoveOf(k); !ok || ami != mi {
			return nil
		}
		_, derr := sth.Delete(k)
		return derr
	})
	if err != nil && !errors.Is(err, ErrClosed) {
		return c.scoreMaintErr(src, err)
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
		for {
			if err := c.writeTopology(c.table.Epoch()+1, m.to.Shards(), m.to.Partition()); err == nil {
				break
			}
			if !c.sleepUnlessClosed(time.Millisecond) {
				return ErrClosed
			}
		}
	}
	fin := c.table.Finish()
	// Scans frozen on a migration-era view may still read retiring slots
	// (and rely on stale copies the view routes them to): let them drain
	// before anything is closed or wiped.
	if !c.waitScansBefore(fin.Gen) {
		// Closing: the topology is committed; only cleanup is skipped,
		// and the retired slots' debris is wiped by a future split.
		c.mig.Store(nil)
		return ErrClosed
	}
	list := c.shardList()
	if fin.Shards() < len(list) {
		kept := make([]*clusterShard, fin.Shards())
		copy(kept, list[:fin.Shards()])
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

// waitShard blocks until shard i's breaker admits traffic. False means
// the cluster is closing or the shard is permanently gone (its disk
// rolled back past the durable watermark — no migration can complete).
func (c *Cluster) waitShard(i int) bool {
	for {
		if c.closed.Load() {
			return false
		}
		sh := c.shard(i)
		if !c.healthOn || sh.health.Allow() {
			return true
		}
		if sh.health.Permanent() {
			return false
		}
		if !c.sleepUnlessClosed(2 * time.Millisecond) {
			return false
		}
	}
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

// scanFreeze freezes a routing view for a merged scan and registers it
// with the live-scan registry, closing the load-then-register race: a
// cutover plus purge landing between the View load and scanEnter would
// pass its scan wait without seeing this scan, then delete source copies
// the frozen view still routes reads to. Registering first and then
// re-checking the generation makes that impossible — if the table still
// reports the registered generation, any later purge wait is ordered
// after the registration (both sides serialize through scanMu and the
// table's atomic view pointer); if not, unregister and re-freeze on the
// newer view.
func (c *Cluster) scanFreeze() *shard.View {
	for {
		v := c.table.View()
		c.scanEnter(v.Gen)
		if c.table.Gen() == v.Gen {
			return v
		}
		c.scanExit(v.Gen)
	}
}

// scanEnter registers a merged scan frozen at routing generation gen.
func (c *Cluster) scanEnter(gen uint64) {
	c.scanMu.Lock()
	c.scans[gen]++
	c.scanMu.Unlock()
}

// scanExit unregisters it.
func (c *Cluster) scanExit(gen uint64) {
	c.scanMu.Lock()
	if c.scans[gen]--; c.scans[gen] <= 0 {
		delete(c.scans, gen)
	}
	c.scanMu.Unlock()
}

// scansBefore reports whether any live scan froze a view older than gen.
func (c *Cluster) scansBefore(gen uint64) bool {
	c.scanMu.Lock()
	defer c.scanMu.Unlock()
	for g, n := range c.scans {
		if g < gen && n > 0 {
			return true
		}
	}
	return false
}

// waitScansBefore blocks until no scan older than gen survives (false on
// close).
func (c *Cluster) waitScansBefore(gen uint64) bool {
	for c.scansBefore(gen) {
		if !c.sleepUnlessClosed(time.Millisecond) {
			return false
		}
	}
	return !c.closed.Load()
}

// autoSplitLoop is the hot-shard watcher: every Interval it compares each
// shard's served-op delta against the others' mean and splits when one
// runs disproportionately hot.
func (c *Cluster) autoSplitLoop() {
	defer c.migWG.Done()
	o := c.opts.AutoSplit.withDefaults()
	for {
		if !c.sleepUnlessClosed(o.Interval) {
			return
		}
		if c.mig.Load() != nil || c.table.Migrating() {
			continue
		}
		list := c.shardList()
		var total, hot uint64
		for _, sh := range list {
			cur := sh.ops.Load()
			d := cur - sh.lastOps
			sh.lastOps = cur
			total += d
			if d > hot {
				hot = d
			}
		}
		if total < o.MinOps || len(list) >= o.MaxShards {
			continue
		}
		// Compare the hottest shard against the mean of the rest: against
		// the overall mean, a perfectly-skewed load could never exceed
		// factor * mean once factor >= shard count.
		split := false
		if len(list) == 1 {
			split = true // one shard holding a hot load is definitionally hot
		} else {
			others := (total - hot) / uint64(len(list)-1)
			split = hot > uint64(o.HotFactor)*others
		}
		if split {
			if err := c.Reshard(len(list) + 1); err == nil {
				c.autoSplits.Add(1)
			}
		}
	}
}

// --- topology resolution & manifest IO ---------------------------------

// reshardFile journals the in-flight migration; topologyFile records the
// committed topology. Both live in the cluster root next to the barrier.
const (
	reshardFile  = "cluster-reshard"
	topologyFile = "cluster-topology"
)

// commitFile writes name's content crash-atomically in the cluster root:
// tmp + fsync + rename + dir-fsync, the discipline every manifest here
// shares.
func (c *Cluster) commitFile(name, content string) error {
	tmp := c.dir + "/" + name + ".tmp"
	f, err := c.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(content))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = c.fs.Rename(tmp, c.dir+"/"+name)
	}
	if err != nil {
		c.fs.Remove(tmp)
		return err
	}
	return c.fs.SyncDir(c.dir)
}

// reshardManifest is the parsed migration journal.
type reshardManifest struct {
	epoch    uint64
	from, to int
	part     shard.Partition
	cut      int
	purged   int
}

// writeReshardManifest journals the migration at the given watermarks.
// The per-move lines are derivable from the header (the watermarks fix
// every state) but make a half-dead cluster legible from the shell.
func (c *Cluster) writeReshardManifest(m *migration, cut, purged int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "euno-cluster-reshard v1 epoch=%d from=%d to=%d part=%d cut=%d purged=%d moves=%d\n",
		c.table.Epoch(), m.from.Shards(), m.to.Shards(), int(m.from.Partition()), cut, purged, len(m.moves))
	for i, mv := range m.moves {
		fmt.Fprintf(&b, "move %d src=%d dst=%d lo=%d hi=%d state=%s\n",
			i, mv.Src, mv.Dst, mv.Lo, mv.Hi, shard.StateAt(i, cut, purged))
	}
	return c.commitFile(reshardFile, b.String())
}

// readReshardManifest loads the migration journal; (nil, nil) when none
// exists.
func (c *Cluster) readReshardManifest() (*reshardManifest, error) {
	if !c.rootHas(reshardFile) {
		return nil, nil
	}
	f, err := c.fs.Open(c.dir + "/" + reshardFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil, fmt.Errorf("eunomia: reshard manifest empty")
	}
	man := &reshardManifest{}
	var part, moves int
	if _, err := fmt.Sscanf(sc.Text(), "euno-cluster-reshard v1 epoch=%d from=%d to=%d part=%d cut=%d purged=%d moves=%d",
		&man.epoch, &man.from, &man.to, &part, &man.cut, &man.purged, &moves); err != nil {
		return nil, fmt.Errorf("eunomia: reshard manifest header %q: %v", sc.Text(), err)
	}
	if part != int(shard.Hash) && part != int(shard.Range) {
		return nil, fmt.Errorf("eunomia: reshard manifest partition %d", part)
	}
	man.part = shard.Partition(part)
	if man.from < 1 || man.from > 64 || man.to < 1 || man.to > 64 ||
		man.cut < 0 || man.cut > moves || man.purged < 0 || man.purged > man.cut {
		return nil, fmt.Errorf("eunomia: reshard manifest inconsistent: %+v moves=%d", *man, moves)
	}
	for i := 0; i < moves; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("eunomia: reshard manifest truncated at move %d", i)
		}
		var mi, src, dst int
		var lo, hi uint64
		var state string
		if _, err := fmt.Sscanf(sc.Text(), "move %d src=%d dst=%d lo=%d hi=%d state=%s",
			&mi, &src, &dst, &lo, &hi, &state); err != nil || mi != i {
			return nil, fmt.Errorf("eunomia: reshard manifest line %q", sc.Text())
		}
		if _, err := shard.ParseMoveState(state); err != nil {
			return nil, fmt.Errorf("eunomia: reshard manifest: %v", err)
		}
	}
	return man, sc.Err()
}

// writeTopology commits the stable topology record.
func (c *Cluster) writeTopology(epoch uint64, shards int, part shard.Partition) error {
	return c.commitFile(topologyFile,
		fmt.Sprintf("euno-cluster-topology v1 epoch=%d shards=%d part=%d\n", epoch, shards, int(part)))
}

// topologyRecord is the parsed topology file.
type topologyRecord struct {
	epoch  uint64
	shards int
	part   shard.Partition
}

// readTopology loads the topology record; (nil, nil) when none exists
// (a cluster that never resharded).
func (c *Cluster) readTopology() (*topologyRecord, error) {
	if !c.rootHas(topologyFile) {
		return nil, nil
	}
	f, err := c.fs.Open(c.dir + "/" + topologyFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil, fmt.Errorf("eunomia: topology record empty")
	}
	rec := &topologyRecord{}
	var part int
	if _, err := fmt.Sscanf(sc.Text(), "euno-cluster-topology v1 epoch=%d shards=%d part=%d",
		&rec.epoch, &rec.shards, &part); err != nil {
		return nil, fmt.Errorf("eunomia: topology record header %q: %v", sc.Text(), err)
	}
	if rec.shards < 1 || rec.shards > 64 || (part != int(shard.Hash) && part != int(shard.Range)) {
		return nil, fmt.Errorf("eunomia: topology record inconsistent: %q", sc.Text())
	}
	rec.part = shard.Partition(part)
	return rec, nil
}

// rootHas reports whether name exists in the cluster root.
func (c *Cluster) rootHas(name string) bool {
	names, err := c.fs.List(c.dir)
	if err != nil {
		return false
	}
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

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

// topology is resolveTopology's answer: how many shard slots to open,
// the stable (pre-migration) topology for the routing table, and the
// migration to resume, if any.
type topology struct {
	slots  int
	stable int
	part   shard.Partition
	epoch  uint64
	man    *reshardManifest
	// recorded reports whether the store itself already records this
	// topology (record or manifest). When false on a durable cluster,
	// OpenCluster writes the record eagerly, so the count is never again
	// guessed from Options after a crash.
	recorded bool
}

// resolveTopology decides the cluster's shape from, in precedence order:
// the migration manifest (a reshard was in flight), the topology record
// (a reshard completed), the barrier manifest's header (pre-resharding
// stores), and finally the caller's Options. Options.Shards == 0 adopts
// whatever the store says; a non-zero count that contradicts the store is
// a typed ErrTopologyMismatch, never a silent reinterpretation.
func (c *Cluster) resolveTopology() (topology, error) {
	part := c.opts.Partition.internal()
	want := c.opts.Shards
	top := topology{part: part}
	var storedN int
	var storedEpoch uint64
	haveStored := false
	if c.dir != "" {
		rec, err := c.readTopology()
		if err != nil {
			return top, err
		}
		man, err := c.readReshardManifest()
		if err != nil {
			return top, err
		}
		if man != nil && rec != nil && rec.epoch > man.epoch {
			// The migration committed (topology record written) but the
			// crash hit before manifest removal: it is complete, not
			// resumable.
			c.fs.Remove(c.dir + "/" + reshardFile)
			c.fs.SyncDir(c.dir)
			man = nil
		}
		if rec != nil {
			top.recorded = true
			storedN, storedEpoch, haveStored = rec.shards, rec.epoch, true
			if rec.part != part {
				if c.opts.Partition != HashPartition {
					return top, fmt.Errorf("eunomia: store is %v-partitioned, options say %v: %w",
						rec.part, c.opts.Partition, ErrTopologyMismatch)
				}
				part = rec.part
				top.part = part
			}
		} else if man == nil {
			bar, err := c.readBarrier()
			if err != nil {
				return top, err
			}
			if bar != nil {
				storedN, storedEpoch, haveStored = len(bar.vec), bar.epoch, true
			}
		}
		if man != nil {
			if man.part != part {
				if c.opts.Partition != HashPartition {
					return top, fmt.Errorf("eunomia: store is %v-partitioned, options say %v: %w",
						man.part, c.opts.Partition, ErrTopologyMismatch)
				}
				part = man.part
				top.part = part
			}
			// Mid-migration the caller may know either era's count; both
			// adopt the resume. Anything else is a real contradiction.
			if want != 0 && want != man.from && want != man.to {
				return top, &TopologyMismatchError{
					StoredEpoch: man.epoch, CurrentEpoch: man.epoch,
					StoredShards: man.to, CurrentShards: want,
				}
			}
			top.stable = man.from
			top.epoch = man.epoch
			top.man = man
			top.recorded = true
			top.slots = man.from
			if man.to > top.slots {
				top.slots = man.to
			}
			return top, nil
		}
	}
	if haveStored {
		if want != 0 && want != storedN {
			return top, &TopologyMismatchError{
				StoredEpoch: storedEpoch, CurrentEpoch: storedEpoch,
				StoredShards: storedN, CurrentShards: want,
			}
		}
		top.stable, top.epoch = storedN, storedEpoch
	} else {
		if want == 0 {
			want = 4
		}
		top.stable = want
	}
	top.slots = top.stable
	return top, nil
}
