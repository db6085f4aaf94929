package eunomia

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eunomia/internal/durable"
	"eunomia/internal/shard"
)

// This file is the sharded serving layer: a Cluster partitions the key
// space across N independent DB shards — each with its own arena, HTM
// device, tree, WAL shard-group, retry policy, and metrics domain —
// and routes operations through Sessions. Sharding multiplies every
// single-tree property: N contention domains instead of one (a hot key
// storms only its shard), N group-commit pipelines, N recovery streams.
// Cross-shard range queries merge the per-shard iterators back into one
// globally ordered stream.
//
// Shards are also independent *fault domains*: each carries a health
// breaker (cluster_health.go) so one dead disk degrades exactly one
// slice of the key space — routed ops to it fail fast with a typed
// error, Range skips-and-reports it in partial mode, Sync/Snapshot
// degrade to the healthy subset, and a background repair loop brings it
// back once the disk returns.

// Partition selects how a Cluster cuts the key space; see the shard
// package for the trade-off.
type Partition int

const (
	// HashPartition (the default) scatters keys — and any hot set — across
	// shards uniformly by a 64-bit mix.
	HashPartition Partition = iota
	// RangePartition gives shard i the contiguous interval
	// [i*width, (i+1)*width) of the uint64 key space.
	RangePartition
)

// String names the partition scheme.
func (p Partition) String() string { return p.internal().String() }

func (p Partition) internal() shard.Partition {
	if p == RangePartition {
		return shard.Range
	}
	return shard.Hash
}

// maxClusterShards bounds a cluster's shard count: the barrier manifest's
// exclusion set is a 64-bit mask.
const maxClusterShards = 64

// ClusterOptions configures OpenCluster.
type ClusterOptions struct {
	// Shards is the number of independent DB shards (default 4).
	Shards int
	// Partition selects the key-space cut (default HashPartition).
	Partition Partition
	// Shard is the per-shard Options template: every shard is an ordinary
	// DB opened with these options. With Durability.Dir set, it names the
	// cluster root: shard i logs under Dir/shard-<i>, and the cluster's
	// snapshot-barrier manifest lives in Dir itself.
	Shard Options
	// PerShard, when non-nil, adjusts shard i's options after templating —
	// the hook the crash harness uses to give every shard its own
	// fault-injecting filesystem.
	PerShard func(i int, o *Options)
	// Health configures the per-shard circuit breaker (on by default;
	// see HealthOptions).
	Health HealthOptions
	// Repair configures the self-healing repair loop that reopens Failed
	// durable shards in the background (on by default; see RepairOptions).
	Repair RepairOptions
	// Reshard configures the online migration engine (see ReshardOptions;
	// the zero value is correct).
	Reshard ReshardOptions
}

// clusterShard is one shard slot: the live DB behind an atomic pointer
// (the repair loop swaps in a recovered replacement), the options to
// reopen it with, its health breaker, and the durable watermark captured
// when it last tripped — the floor any re-admitted incarnation must have
// recovered past.
type clusterShard struct {
	idx    int
	opts   Options // final per-shard options (template + PerShard hook)
	db     atomic.Pointer[DB]
	gen    atomic.Uint64 // bumped on every repair swap; Sessions re-thread on mismatch
	health *shard.Health
	// watermark is the highest durable LSN known flushed when the shard
	// tripped: everything at or below it was acknowledged AND on disk, so
	// a reopened incarnation recovering short of it has lost data.
	watermark atomic.Uint64
	repairing atomic.Bool
}

// Cluster is a hash- or range-partitioned key-value store over N
// independent DB shards. All methods are safe for concurrent use;
// per-worker operations go through Session handles. The shard count is
// not fixed for life: Reshard (cluster_reshard.go) splits or merges the
// topology online, which is why routing goes through an epoched
// shard.Table and the shard slice sits behind an atomic pointer.
type Cluster struct {
	opts  ClusterOptions
	table *shard.Table
	// shards is the serving slot slice: slot i is shard i under the
	// current routing table. Reshard appends slots on a split and
	// truncates retired ones after a merge; readers load the slice once
	// per decision.
	shards atomic.Pointer[[]*clusterShard]

	// Durable clusters keep the barrier manifest on fs under dir.
	fs  durable.FS
	dir string

	healthOn  bool
	healthCfg shard.HealthConfig
	repair    RepairOptions

	stop     chan struct{}  // closed by Close; every library goroutine watches it
	repairMu sync.Mutex     // serializes spawn vs Close
	bg       sync.WaitGroup // the repair and migration goroutines

	// Online resharding state (cluster_reshard.go): the in-flight
	// migration, and the session registry that the engine's quiesce
	// barrier walks before the first copy and its purges and slot
	// retirement walk for live scans.
	reshardMu sync.Mutex
	mig       atomic.Pointer[migration]
	sessMu    sync.Mutex
	sessions  map[*Session]struct{}
	movesDone atomic.Uint64
	redirects atomic.Uint64

	// Fault-domain counters (see FaultMetrics).
	shed          atomic.Uint64
	retries       atomic.Uint64
	retriesDenied atomic.Uint64

	snapMu sync.Mutex // serializes cluster snapshots (barrier + manifest)
	snapID atomic.Uint64
	closed atomic.Bool
}

// shardList returns the current serving slot slice (never nil after
// OpenCluster). The slice is immutable; Reshard swaps in a new one.
func (c *Cluster) shardList() []*clusterShard { return *c.shards.Load() }

// shard returns slot i's shard.
func (c *Cluster) shard(i int) *clusterShard { return (*c.shards.Load())[i] }

// shardDirName names shard i's durability directory under the cluster
// root.
func shardDirName(root string, i int) string {
	return root + "/shard-" + fmt.Sprint(i)
}

// OpenCluster opens every shard (recovering each from its own WAL and
// snapshots when durable) and verifies the cluster-wide snapshot barrier:
// if a previous Snapshot recorded a barrier LSN vector, every shard must
// have recovered at least up to its entry — a shard that comes back short
// has lost acknowledged writes (a swapped disk, a deleted directory), and
// OpenCluster fails loudly instead of serving the hole.
//
// The shard count is resolved against what the store itself recorded
// (see resolveTopology): a cluster that resharded in a previous life
// reopens at its committed topology, and one that crashed mid-migration
// resumes the migration in the background. Options.Shards == 0 adopts
// whatever the store says (default 4 for a fresh cluster); a non-zero
// Shards that contradicts the store fails with ErrTopologyMismatch.
func OpenCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("eunomia: cluster needs >= 1 shard, got %d", opts.Shards)
	}
	if opts.Shards > maxClusterShards {
		return nil, fmt.Errorf("eunomia: cluster supports <= %d shards, got %d", maxClusterShards, opts.Shards)
	}
	c := &Cluster{
		opts:     opts,
		stop:     make(chan struct{}),
		sessions: map[*Session]struct{}{},
	}
	c.healthOn = !opts.Health.Disable
	c.healthCfg = shard.HealthConfig{
		Window:       opts.Health.Window,
		TripFailures: opts.Health.TripFailures,
	}
	c.repair = opts.Repair.withDefaults()
	if opts.Shard.Durability.Dir != "" {
		c.dir = opts.Shard.Durability.Dir
		c.fs = opts.Shard.Durability.FS
		if c.fs == nil {
			c.fs = durable.OSFS{}
		}
		if err := c.fs.MkdirAll(c.dir); err != nil {
			return nil, err
		}
	}
	top, man, recorded, err := c.resolveTopology()
	if err != nil {
		return nil, err
	}
	var list []*clusterShard
	slots := top.shards
	if man != nil {
		slots = max(man.from, man.to)
	}
	for i := 0; i < slots; i++ {
		sh, err := c.openShard(i, false)
		if err != nil {
			return nil, closeAfter(fmt.Errorf("eunomia: cluster shard %d: %w", i, err), list)
		}
		list = append(list, sh)
	}
	c.shards.Store(&list)
	c.table = shard.NewTableAt(shard.New(top.shards, top.part), top.epoch)
	var resume *migration
	if man != nil {
		// A migration was in flight when the previous incarnation died:
		// re-install its routing state (already-cut intervals route to
		// their destinations immediately) and resume the engine below.
		resume = newMigration(shard.New(man.from, top.part), shard.New(man.to, top.part), man.cut, man.purged)
		resume.cutGen = c.table.BeginReshard(resume.to, man.cut).Gen
		c.mig.Store(resume)
	}
	if c.dir != "" {
		if err := c.verifyBarrier(); err != nil {
			return nil, closeAfter(err, list)
		}
		if !recorded {
			// First durable open: record the resolved topology so a later
			// reopen — or a crash before the first snapshot — never has to
			// guess the count from Options.
			if err := c.writeTopology(top.epoch, top.shards, top.part); err != nil {
				return nil, closeAfter(fmt.Errorf("eunomia: cluster topology record: %w", err), list)
			}
		}
	}
	if resume != nil {
		c.spawn(func() error { return c.runMigration(resume, true) }, resume.finish)
	}
	return c, nil
}

// openShard opens slot i from the shard template: its own directory under
// the cluster root (emptied first when wipe is set — a split's destination
// must not inherit a retired slot's debris), then the PerShard hook.
func (c *Cluster) openShard(i int, wipe bool) (*clusterShard, error) {
	o := c.opts.Shard
	if o.Durability.Dir != "" {
		o.Durability.Dir = shardDirName(c.dir, i)
		if wipe {
			if err := c.wipeDir(o.Durability.Dir); err != nil {
				return nil, fmt.Errorf("wipe: %w", err)
			}
		}
	}
	if c.opts.PerShard != nil {
		c.opts.PerShard(i, &o)
	}
	db, err := Open(o)
	if err != nil {
		return nil, err
	}
	sh := &clusterShard{idx: i, opts: o, health: shard.NewHealth(c.healthCfg)}
	sh.db.Store(db)
	return sh, nil
}

// closeAfter closes every shard's current DB and returns err (which may
// be nil) joined with whatever the closes reported.
func closeAfter(err error, shards []*clusterShard) error {
	errs := []error{err}
	for _, sh := range shards {
		db := sh.db.Load()
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("eunomia: cluster shard %d close: %w", sh.idx, err))
		}
	}
	return errors.Join(errs...)
}

// Shards returns the serving slot count. During a split it already
// includes the destination slots; during a merge it still includes the
// retiring sources until the migration finishes.
func (c *Cluster) Shards() int { return len(c.shardList()) }

// Epoch returns the completed-reshard count: 0 for a cluster that never
// changed topology, +1 per finished Reshard.
func (c *Cluster) Epoch() uint64 { return c.table.Epoch() }

// Migrating reports whether a topology change is in flight.
func (c *Cluster) Migrating() bool { return c.table.Migrating() }

// ShardFor returns the shard that owns key under the current routing
// view.
func (c *Cluster) ShardFor(key uint64) int { return c.table.Route(key) }

// DB returns shard i's current underlying DB — for per-shard drain,
// metrics, or direct inspection. The repair loop may swap a Failed
// shard's DB for a recovered one; the returned handle is the one live at
// the call. Mutating a shard outside the router's key map breaks the
// cluster's partitioning invariant: a key written there shows in a merged
// scan on a stable view.
func (c *Cluster) DB(i int) *DB { return c.shard(i).db.Load() }

// Session is a Cluster's per-worker handle: one tree Thread per shard
// slot, with operations routed by key. Like Thread, a Session must be
// used by one goroutine at a time; create one per worker.
type Session struct {
	c        *Cluster
	tableGen uint64 // routing generation the slot arrays were sized against
	threads  []*Thread
	gens     []uint64 // shard generation each thread was built against
	tokens   []int    // banked retry tokens (per-shard retry budget)
	earned   []int    // successes counted toward the next token

	// guard is held (read side) for every routed operation's whole
	// execution. The migration engine's quiesce barrier takes the write
	// side of every registered session's guard once, after installing the
	// migration routing view and before the first copy: an operation that
	// routed under a pre-migration view — and so took the fenceless fast
	// path — is guaranteed to have finished before any of its keys move,
	// closing the window where a delayed write could land on a
	// de-authorized source after its interval was copied and cut over.
	guard sync.RWMutex

	// cursors are the merge-scan's per-shard cursors and page buffers, kept
	// across calls so a Scan allocates nothing (see merge). pages counts
	// the pages they have read; the tests take the refill rate from it.
	cursors []*shardCursor
	pages   uint64

	// scanGen is the view generation its outermost live scan froze, or 0.
	scanGen atomic.Uint64
}

// NewSession creates a worker handle spanning every shard. Threads are
// built lazily so a Failed shard costs nothing until it heals. Sessions
// are registered with the cluster (the resharding engine's quiesce
// barrier walks them); a workload that churns Sessions should Close each
// one when done with it.
func (c *Cluster) NewSession() *Session {
	s := &Session{c: c, tableGen: c.table.Gen()}
	s.ensure(len(c.shardList()))
	c.sessMu.Lock()
	c.sessions[s] = struct{}{}
	c.sessMu.Unlock()
	return s
}

// Close closes the Session's per-shard Threads (folding their batched
// statistics into Metrics) and unregisters the Session from the cluster.
// The Session must not be used afterwards: an unregistered Session's
// operations are invisible to the resharding engine's quiesce barrier, so
// using one concurrently with a Reshard can lose writes. Close is optional
// for Sessions that live as long as the Cluster. The error is always nil
// (the signature satisfies eunomia.Handle).
func (s *Session) Close() error {
	for _, th := range s.threads {
		if th != nil {
			th.Close()
		}
	}
	s.c.sessMu.Lock()
	delete(s.c.sessions, s)
	s.c.sessMu.Unlock()
	return nil
}

// ensure sizes the per-slot arrays for n serving slots, preserving
// existing threads and banked tokens; new slots start with a full bank.
func (s *Session) ensure(n int) {
	for len(s.threads) < n {
		s.threads = append(s.threads, nil)
		s.gens = append(s.gens, 0)
		s.tokens = append(s.tokens, retryBudget)
		s.earned = append(s.earned, 0)
	}
	if len(s.threads) > n {
		s.threads = s.threads[:n]
		s.gens, s.tokens, s.earned = s.gens[:n], s.tokens[:n], s.earned[:n]
	}
}

// shardThread returns the Session's thread for shard i, failing fast
// when the cluster is closed or the shard's breaker is open, and
// re-threading against the current DB after a repair swap. It also
// observes the routing-table generation: a reshard that grew or shrank
// the slot count resizes the Session's per-slot arrays here, the same
// lazy re-threading discipline the health layer uses for repair swaps.
func (s *Session) shardThread(i int) (*Thread, error) {
	c := s.c
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if g := c.table.Gen(); g != s.tableGen {
		s.tableGen = g
		s.ensure(len(c.shardList()))
	}
	if i >= len(s.threads) {
		s.ensure(i + 1)
	}
	sh := c.shard(i)
	if c.healthOn && !sh.health.Allow() {
		c.shed.Add(1)
		return nil, c.unavailable(i)
	}
	if g := sh.gen.Load(); s.threads[i] == nil || g != s.gens[i] {
		s.threads[i] = sh.db.Load().NewThread()
		s.gens[i] = g
	}
	return s.threads[i], nil
}

// do runs op against shard i with health accounting and the retry
// budget: a transient failure is retried at most once, and only while
// the Session holds a banked token (earned by successes), so retries can
// never amplify a failure storm.
func (s *Session) do(i int, op func(*Thread) error) error {
	c := s.c
	for attempt := 0; ; attempt++ {
		th, err := s.shardThread(i)
		if err != nil {
			return err
		}
		err = op(th)
		if err == nil {
			if c.healthOn {
				c.shard(i).health.RecordSuccess()
				s.earnRetry(i)
			}
			return nil
		}
		if errors.Is(err, ErrReservedValue) {
			// The caller's error, not the shard's: no health signal.
			return err
		}
		retryable := true
		var nr errHalfApplied
		if errors.As(err, &nr) {
			// The op mutated state before the acknowledgement failed.
			// Retrying would observe its own half-applied effect and could
			// launder the lost ack into a clean result (a Delete re-run
			// against the key it just removed reports "was already absent"
			// — a lie the linearizability fuzzer catches). Surface the
			// failure instead; the caller holds an effect-unknown window.
			retryable = false
			err = nr.error
		}
		if c.closed.Load() {
			return ErrClosed
		}
		if !c.healthOn {
			return err
		}
		sh := c.shard(i)
		err = c.shardFailed(sh, err)
		if attempt == 0 && retryable && sh.health.Allow() {
			if s.spendRetry(i) {
				c.retries.Add(1)
				continue
			}
			c.retriesDenied.Add(1)
		}
		return err
	}
}

// moveRedirectLimit bounds how many times one operation will chase a
// moving key across cutovers before surfacing ErrMoved. Two hops cover
// every single-migration interleaving; more means the topology is
// churning faster than the op can route.
const moveRedirectLimit = 3

// routed runs op on key's owning shard under the current routing view.
// Keys inside a not-yet-cut-over migration interval are the delicate
// case: the op takes the migration fence (shared side) and revalidates
// the route under it, so the engine's cutover — which takes the fence
// exclusively — can never flip authority while an operation is mid-
// flight on the old owner. A successful write to the interval currently
// being copied is noted in the migration's dirty set for catch-up. When
// the owner did change between routing and fencing, the op redirects:
// it re-routes on the fresh view and retries — the first hop free (the
// op never executed, so the retry is always safe), further hops from
// the Session's banked retry tokens — and only a topology churning
// faster than the redirect limit surfaces ErrMoved.
//
// The whole call runs under the Session guard (read side): a freshly
// begun migration quiesces every registered session before its first
// copy, so the fenceless stable-key fast path below is safe even for an
// operation that routed just before BeginReshard — the engine waits for
// it to finish before any of its keys can move.
func (s *Session) routed(key uint64, write bool, op func(*Thread) error) error {
	c := s.c
	s.guard.RLock()
	defer s.guard.RUnlock()
	for hops := 0; ; hops++ {
		v := c.table.View()
		i := v.Route(key)
		mi, moving := v.MoveOf(key)
		if !moving || mi < v.Cut() {
			// Stable key, or its interval already cut over: the owner can
			// never silently change under the op (cutovers only ever flip
			// un-cut intervals, and a new migration quiesces this session's
			// guard before touching anything), so no fence is needed.
			return s.do(i, op)
		}
		m := c.mig.Load()
		if m == nil {
			// The migration retired between the view load and here; the
			// fresh view on the next spin routes conclusively.
			if hops < moveRedirectLimit {
				continue
			}
			return fmt.Errorf("eunomia: key %d: %w", key, ErrMoved)
		}
		m.fence.RLock()
		if c.mig.Load() != m {
			m.fence.RUnlock()
			if hops < moveRedirectLimit {
				continue
			}
			return fmt.Errorf("eunomia: key %d: %w", key, ErrMoved)
		}
		v2 := c.table.View()
		if i2 := v2.Route(key); i2 != i {
			// Lost the race with a cutover: the interval flipped between
			// routing and fencing. Redirect to the new owner.
			m.fence.RUnlock()
			c.redirects.Add(1)
			if hops == 0 || s.spendRetry(i2) {
				if hops > 0 {
					c.retries.Add(1)
				}
				continue
			}
			c.retriesDenied.Add(1)
			return fmt.Errorf("eunomia: key %d: %w", key, ErrMoved)
		}
		err := s.do(i, op)
		if err == nil && write {
			if ami, active := v2.MoveOf(key); active && ami == v2.Cut() {
				// The engine is copying this interval right now; make sure
				// the write reaches the destination before cutover.
				m.note(key)
			}
		}
		m.fence.RUnlock()
		return err
	}
}

// Get returns the value stored under key, from the owning shard.
func (s *Session) Get(key uint64) (uint64, bool, error) {
	var v uint64
	var ok bool
	err := s.routed(key, false, func(th *Thread) error {
		var e error
		v, ok, e = th.Get(key)
		return e
	})
	return v, ok, err
}

// Put inserts or updates key on its owning shard. Durability semantics
// match Thread.Put: with a durable cluster, Put returns only after the
// owning shard's WAL has the operation on disk. A transient shard error
// is retried once under the Session's retry budget (Put is idempotent,
// so the retry is safe even if the first attempt half-applied).
func (s *Session) Put(key, val uint64) error {
	return s.routed(key, true, func(th *Thread) error {
		return th.Put(key, val)
	})
}

// Delete removes key from its owning shard, reporting whether it was
// present. Unlike Put, a failed Delete is retried only when the first
// attempt provably applied nothing (present=false with an error means
// the shard rejected the op before touching the tree). A half-applied
// Delete — removal applied, acknowledgement lost — must NOT be retried:
// the retry would find the key already gone and report a clean
// "was already absent", silently laundering an unacknowledged removal
// into a result no linearizable history can explain. Such failures
// surface as errors; the caller holds an effect-unknown window, exactly
// as with a non-retried failed Put.
func (s *Session) Delete(key uint64) (bool, error) {
	var present bool
	err := s.routed(key, true, func(th *Thread) error {
		var e error
		present, e = th.Delete(key)
		if e != nil && present {
			return errHalfApplied{e}
		}
		return e
	})
	return present, err
}

// errHalfApplied marks an operation that mutated shard state before its
// acknowledgement failed. Session.do never retries these: a retry runs
// against the op's own half-applied effect and can return an answer that
// contradicts the mutation it silently performed.
type errHalfApplied struct{ error }

func (e errHalfApplied) Unwrap() error { return e.error }
