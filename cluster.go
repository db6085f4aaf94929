package eunomia

import (
	"bufio"
	"errors"
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"eunomia/internal/durable"
	"eunomia/internal/shard"
)

// This file is the sharded serving layer: a Cluster partitions the key
// space across N independent DB shards — each with its own arena, HTM
// device, tree, WAL shard-group, resilience policy, and metrics domain —
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
	// AutoSplit configures the hot-shard watcher that triggers a split
	// when one shard runs disproportionately hot (off by default; see
	// AutoSplitOptions).
	AutoSplit AutoSplitOptions
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
	// ops counts successfully served operations — the heat signal the
	// auto-split watcher reads. lastOps is the watcher's private window
	// cursor.
	ops     atomic.Uint64
	lastOps uint64
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
	retryCap  int // per-shard retry tokens a Session may bank

	stop     chan struct{} // closed by Close; repair loops watch it
	repairMu sync.Mutex    // serializes repair/migration spawn vs Close
	repairWG sync.WaitGroup

	// Online resharding state (cluster_reshard.go): the in-flight
	// migration, the goroutines it owns, the live-scan registry that
	// gates purges and slot retirement, and the session registry the
	// engine's quiesce barrier walks before the first copy.
	reshardMu  sync.Mutex
	mig        atomic.Pointer[migration]
	migWG      sync.WaitGroup
	scanMu     sync.Mutex
	scans      map[uint64]int // routing Gen a live merged scan froze -> count
	sessMu     sync.Mutex
	sessions   map[*Session]struct{}
	movesDone  atomic.Uint64
	redirects  atomic.Uint64
	autoSplits atomic.Uint64

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
	if opts.Shards > 64 {
		// The barrier manifest's exclusion set is a 64-bit mask.
		return nil, fmt.Errorf("eunomia: cluster supports <= 64 shards, got %d", opts.Shards)
	}
	c := &Cluster{
		opts:     opts,
		stop:     make(chan struct{}),
		scans:    map[uint64]int{},
		sessions: map[*Session]struct{}{},
	}
	c.healthOn = !opts.Health.Disable
	c.healthCfg = shard.HealthConfig{
		Window:           opts.Health.Window,
		TripFailures:     opts.Health.TripFailures,
		RecoverSuccesses: opts.Health.RecoverSuccesses,
	}
	c.repair = opts.Repair.withDefaults()
	c.retryCap = opts.Health.RetryBudget
	if c.retryCap == 0 {
		c.retryCap = defaultRetryBudget
	} else if c.retryCap < 0 {
		c.retryCap = 0
	}
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
	top, err := c.resolveTopology()
	if err != nil {
		return nil, err
	}
	var list []*clusterShard
	for i := 0; i < top.slots; i++ {
		o := opts.Shard
		if o.Durability.Dir != "" {
			o.Durability.Dir = shardDirName(c.dir, i)
		}
		if opts.PerShard != nil {
			opts.PerShard(i, &o)
		}
		db, err := Open(o)
		if err != nil {
			err = fmt.Errorf("eunomia: cluster shard %d: %w", i, err)
			return nil, errors.Join(append([]error{err}, closeAll(list)...)...)
		}
		sh := &clusterShard{idx: i, opts: o, health: shard.NewHealth(c.healthCfg)}
		sh.db.Store(db)
		list = append(list, sh)
	}
	c.shards.Store(&list)
	c.table = shard.NewTableAt(shard.New(top.stable, top.part), top.epoch)
	var resume *migration
	if top.man != nil {
		// A migration was in flight when the previous incarnation died:
		// re-install its routing state (already-cut intervals route to
		// their destinations immediately) and resume the engine below.
		man := top.man
		resume = newMigration(shard.New(man.from, top.part), shard.New(man.to, top.part), man.cut, man.purged)
		resume.cutGen = c.table.BeginReshard(resume.to, man.cut).Gen
		c.mig.Store(resume)
	}
	if c.dir != "" {
		if err := c.verifyBarrier(); err != nil {
			return nil, errors.Join(append([]error{err}, closeAll(list)...)...)
		}
		if !top.recorded {
			// First durable open (or a pre-resharding store): record the
			// resolved topology so a later reopen — or a crash before the
			// first snapshot — never has to guess the count from Options.
			if err := c.writeTopology(top.epoch, top.stable, top.part); err != nil {
				err = fmt.Errorf("eunomia: cluster topology record: %w", err)
				return nil, errors.Join(append([]error{err}, closeAll(list)...)...)
			}
		}
	}
	if resume != nil {
		c.migWG.Add(1)
		go c.runMigration(resume, true)
	}
	if opts.AutoSplit.Enable {
		c.migWG.Add(1)
		go c.autoSplitLoop()
	}
	return c, nil
}

// closeAll closes every shard's current DB, collecting non-nil errors.
func closeAll(shards []*clusterShard) []error {
	var errs []error
	for _, sh := range shards {
		db := sh.db.Load()
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("eunomia: cluster shard %d close: %w", sh.idx, err))
		}
	}
	return errs
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
// cluster's partitioning invariant.
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
		s.tokens = append(s.tokens, s.c.retryCap)
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
			sh := c.shard(i)
			sh.ops.Add(1)
			if c.healthOn {
				sh.health.RecordSuccess()
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
		cause := c.causeOf(err)
		if sh.health.RecordFailure(cause, false) {
			c.tripped(sh)
		}
		if attempt == 0 && retryable && sh.health.Allow() {
			if s.spendRetry(i) {
				c.retries.Add(1)
				continue
			}
			c.retriesDenied.Add(1)
		}
		return &ShardError{Shard: i, State: ShardState(sh.health.State()), Cause: cause}
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

// RangeStat reports how a partial-mode range ended: which shards were
// excluded and why. Pass one to RangePartial; read it after iteration.
type RangeStat struct {
	// Partial is true when at least one shard's slice of the range is
	// missing from the merged stream.
	Partial bool
	// Skipped lists shards whose breaker was already open when the merge
	// started — none of their keys appear.
	Skipped []int
	// Failed lists shards that died mid-scan — their keys appear only up
	// to the failure point.
	Failed []int
	// Err joins the per-shard errors behind Skipped and Failed (each
	// errors.Is-matches ErrShardUnavailable, or ErrClosed if the cluster
	// shut down mid-range).
	Err error
}

// Range returns an iterator over the key/value pairs in [from, to],
// ascending across every shard: the per-shard streams (each globally
// sorted within its shard) are merged into one ordered stream. Keys are
// yielded strictly increasing — each key at most once, from its owning
// shard. Per-key snapshot granularity matches Thread.Range; keys written
// concurrently may or may not be observed. Breaking out of the loop
// releases every per-shard cursor immediately.
//
// Range is strict: if any shard fails — breaker already open, or a disk
// dying mid-scan — iteration stops at the failure rather than silently
// serving a stream with a hole where that shard's keys should be. Use
// RangePartial to keep merging the healthy shards instead, or Scan for
// the error itself.
func (s *Session) Range(from, to uint64) iter.Seq2[uint64, uint64] {
	return s.mergedRange(from, to, nil, true)
}

// RangePartial is Range's explicit partial-result mode: failed shards
// are skipped (Skipped) or abandoned at their failure point (Failed)
// while the healthy shards' merge continues, and stat reports exactly
// what is missing. The caller opts into partiality by calling this —
// plain Range never silently drops a shard.
func (s *Session) RangePartial(from, to uint64, stat *RangeStat) iter.Seq2[uint64, uint64] {
	return s.mergedRange(from, to, stat, false)
}

// kvPair is one buffered key/value pair in a shard cursor page.
type kvPair struct{ k, v uint64 }

// clusterRangeBatch caps a page: no single Thread.Scan the cluster issues
// asks a shard for more raw keys than this.
const clusterRangeBatch = 256

// clusterRangeFirst is the first page of a merged range that carries no
// limit (Range, RangePartial): most callers break out early, and the ones
// that do not reach full pages after four doublings.
const clusterRangeFirst = 16

// clusterShareSlack is what a hash shard's first page holds beyond its even
// share of the keys a merge means to take. A shard's part of the next n
// keys is binomial around n/shards, and a cursor that runs dry before the
// merge is done costs one more Thread.Scan; the slack keeps that to about
// one Scan(from,16) in fifteen on four shards (EXPERIMENTS.md has the
// measured rate).
const clusterShareSlack = 4

// firstPage is each cursor's first page in a merge that means to take first
// keys under view v. A range-partitioned cluster keeps keys in order on one
// shard at a time, so the shard the interval starts on may have to supply
// them all. Hash partitioning deals consecutive keys out evenly, so a shard
// is asked for its share plus clusterShareSlack; a cursor that needs more
// refills through the pager's doubling.
func firstPage(v *shard.View, first int) int {
	if n := v.Shards(); v.Target().Partition() == shard.Hash {
		return min(first, (first+n-1)/n+clusterShareSlack)
	}
	return first
}

// scanPager reads the keys of [from, to] off one shard through Thread.Scan,
// a page of raw keys at a time, re-anchoring each page one past the last
// raw key of the one before. It is the one place that decides how large
// the next page is (double the last, up to clusterRangeBatch) and when the
// interval is exhausted (the shard returned fewer raw keys than the page
// asked for, a key past to, or to itself). Raw means every key the shard
// holds, whatever the caller's visit makes of it: a reader that filters —
// a merge cursor dropping stale copies it does not own — must not mistake
// a page it discarded for the end of the shard.
type scanPager struct {
	from, to uint64
	size     int  // raw keys the next page asks for
	done     bool // the interval is exhausted

	// One page's bookkeeping, and the Thread.Scan callback that fills it —
	// bound once at construction, so reading a page allocates nothing.
	raw   int
	past  bool
	last  uint64
	onKey func(k, v uint64) bool
}

// init binds the pager to the function that receives every raw key of a
// page; reset starts an interval.
func (p *scanPager) init(visit func(k, v uint64)) {
	p.onKey = func(k, v uint64) bool {
		if k > p.to {
			p.past = true
			return false
		}
		p.raw++
		p.last = k
		visit(k, v)
		return true
	}
}

// reset points the pager at [from, to] with a first page of first raw
// keys (clamped to [1, clusterRangeBatch]).
func (p *scanPager) reset(from, to uint64, first int) {
	p.from, p.to, p.done = from, to, false
	p.size = min(max(first, 1), clusterRangeBatch)
}

// next reads one page from th, handing every raw key in the interval to
// visit. A Thread.Scan error is returned as is, with the pager unmoved.
func (p *scanPager) next(th *Thread) error {
	p.raw, p.past = 0, false
	if _, err := th.Scan(p.from, p.size, p.onKey); err != nil {
		return err
	}
	if p.raw < p.size || p.past || p.last >= p.to {
		p.done = true
		return nil
	}
	p.from = p.last + 1
	p.size = min(2*p.size, clusterRangeBatch)
	return nil
}

// shardCursor is one shard's input to the k-way merge: a scanPager plus
// the page it last read, holding the error when the shard dies mid-scan.
// Every cursor filters its shard's keys through the scan's frozen routing
// view: mid-migration a key can physically exist on both the source and
// the destination (copied but not yet purged), and accepting it only from
// the shard the frozen view names keeps the merged stream exactly-once no
// matter how many cutovers land while the scan runs.
type shardCursor struct {
	s     *Session
	shard int
	view  *shard.View
	pager scanPager
	buf   []kvPair // owned keys of the current page; buf[pos] is the head
	pos   int
	err   error
}

func newShardCursor(s *Session, i int) *shardCursor {
	cur := &shardCursor{s: s, shard: i}
	cur.pager.init(func(k, v uint64) {
		if cur.view.Route(k) == cur.shard {
			cur.buf = append(cur.buf, kvPair{k, v})
		}
	})
	return cur
}

// head makes the cursor's next pair available as buf[pos], reading pages
// until one holds a key this shard owns, and reports whether there is one.
// On false, cur.err distinguishes shard failure from normal exhaustion.
// Health is re-checked per page, so a shard tripped by concurrent writers
// is caught at the next page boundary.
func (cur *shardCursor) head() bool {
	for cur.pos == len(cur.buf) {
		if cur.pager.done || cur.err != nil {
			return false
		}
		cur.buf, cur.pos = cur.buf[:0], 0
		th, err := cur.s.shardThread(cur.shard)
		if err != nil {
			cur.err = err
		} else if err := cur.pager.next(th); err != nil {
			cur.err = cur.s.scanFailed(cur.shard, err)
		}
		cur.s.pages++
	}
	return true
}

// scanFailed scores a mid-scan shard failure and wraps it.
func (s *Session) scanFailed(i int, err error) error {
	c := s.c
	if c.closed.Load() {
		return ErrClosed
	}
	if !c.healthOn {
		return err
	}
	sh := c.shard(i)
	cause := c.causeOf(err)
	if sh.health.RecordFailure(cause, false) {
		c.tripped(sh)
	}
	return &ShardError{Shard: i, State: ShardState(sh.health.State()), Cause: cause}
}

// mergedRange is Range and RangePartial's iterator over merge.
func (s *Session) mergedRange(from, to uint64, stat *RangeStat, strict bool) iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) {
		s.merge(from, to, clusterRangeFirst, stat, strict, yield)
	}
}

// merge is the k-way merge behind Range (strict), RangePartial and Scan;
// first is the caller's hint of how many keys it means to take, from which
// firstPage sizes each cursor's first page. The whole merge routes against
// one frozen routing view, registered with the cluster's live-scan registry
// (scanFreeze registers before the view is trusted, so a concurrent
// cutover+purge can never slip through the registration gap): the migration
// engine will not purge a cut-over interval's source copies — nor retire a
// merged-away slot — while a scan that still routes reads there is running.
//
// Shards are read only as far as the consumer asks: a cursor is moved past
// the pair it delivered after yield has said it wants another, so a
// consumer that stops causes no further shard read, and cannot be handed
// a failure for keys it never asked for.
func (s *Session) merge(from, to uint64, first int, stat *RangeStat, strict bool, yield func(uint64, uint64) bool) {
	v := s.c.scanFreeze()
	defer s.c.scanExit(v.Gen)
	var errs []error
	record := func(i int, err error, midScan bool) {
		if stat != nil {
			stat.Partial = true
			if midScan {
				stat.Failed = append(stat.Failed, i)
			} else {
				stat.Skipped = append(stat.Skipped, i)
			}
		}
		errs = append(errs, fmt.Errorf("eunomia: cluster shard %d range: %w", i, err))
	}
	defer func() {
		if stat != nil {
			stat.Err = errors.Join(errs...)
		}
	}()
	// The cursors and their page buffers are the Session's, borrowed for
	// the merge: a scan started from inside yield finds none and builds
	// its own.
	all := s.cursors
	s.cursors = nil
	defer func() { s.cursors = all }()
	for len(all) < v.Shards() {
		all = append(all, newShardCursor(s, len(all)))
	}
	curs := all[:v.Shards()]
	page := firstPage(v, first)
	for i, cur := range curs {
		cur.view, cur.buf, cur.pos, cur.err = v, cur.buf[:0], 0, nil
		cur.pager.reset(from, to, page)
		if !cur.head() && cur.err != nil {
			record(i, cur.err, false)
			if strict {
				return
			}
		}
	}
	last, have := uint64(0), false
	for {
		var cur *shardCursor
		for _, o := range curs {
			if o.pos < len(o.buf) && (cur == nil || o.buf[o.pos].k < cur.buf[cur.pos].k) {
				cur = o
			}
		}
		if cur == nil {
			return
		}
		p := cur.buf[cur.pos]
		cur.pos++
		// Shards own disjoint keys, so a duplicate can only mean a
		// mis-routed write; the merge still guarantees strictly increasing
		// output and keeps the lowest-shard copy.
		if !have || p.k != last {
			last, have = p.k, true
			if !yield(p.k, p.v) {
				return
			}
		}
		if !cur.head() && cur.err != nil {
			record(cur.shard, cur.err, true)
			if strict {
				// Everything after the failure point would have a hole,
				// so stop here.
				return
			}
		}
	}
}

// Scan visits up to max keys >= from in ascending order across all
// shards, stopping early if fn returns false, and returns the number
// visited (as on a Thread, the key fn stopped on is not one of them) —
// the callback form of Range. Unlike Range's silent stop, a
// shard failing mid-scan surfaces as an error (wrapping
// ErrShardUnavailable) alongside however many keys were visited first;
// a shard that fails after the last visited key was read does not.
func (s *Session) Scan(from uint64, max int, fn func(key, val uint64) bool) (int, error) {
	if s.c.closed.Load() {
		return 0, ErrClosed
	}
	if max <= 0 {
		return 0, nil
	}
	var stat RangeStat
	n := 0
	s.merge(from, ^uint64(0), max, &stat, false, func(k, v uint64) bool {
		if !fn(k, v) {
			return false
		}
		n++
		return n < max
	})
	return n, stat.Err
}

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

// ClusterMetrics is the cluster-wide unified snapshot: the per-shard
// Metrics plus their aggregate, and the fault-domain layer's view.
type ClusterMetrics struct {
	// Shards is the shard count.
	Shards int
	// Agg sums (or, where summing is meaningless, conservatively merges)
	// every shard's Metrics.
	Agg Metrics
	// PerShard holds each shard's own snapshot, index-aligned with
	// Cluster.DB.
	PerShard []Metrics
	// Health holds each shard's breaker state, index-aligned.
	Health []ShardHealthMetrics
	// Fault aggregates the fault-domain layer's counters.
	Fault FaultMetrics
	// Topology is the routing layer's view: epoch, generation, and the
	// reshard counters.
	Topology TopologyMetrics
}

// TopologyMetrics is the routing table's state plus the migration
// engine's lifetime counters.
type TopologyMetrics struct {
	// Epoch counts completed topology changes.
	Epoch uint64
	// RoutingGen is the routing generation (bumps on migration begin,
	// every interval cutover, and finish).
	RoutingGen uint64
	// Shards is the serving slot count under the current view.
	Shards int
	// Migrating reports an in-flight topology change.
	Migrating bool
	// MovesDone counts migration intervals fully completed (copied, cut
	// over, purged) over the cluster's lifetime.
	MovesDone uint64
	// Redirects counts operations re-routed mid-flight because their key's
	// interval cut over under them.
	Redirects uint64
	// AutoSplits counts resharding runs triggered by the hot-shard watcher.
	AutoSplits uint64
}

// Metrics returns the cluster-wide aggregate snapshot — the
// Store-interface view. Use ClusterMetrics for the per-shard breakdown,
// health states and topology counters.
func (c *Cluster) Metrics() Metrics { return c.ClusterMetrics().Agg }

// ClusterMetrics returns one coherent snapshot of every shard plus the
// aggregate. Like DB.Metrics, it is safe to call concurrently with
// operations. A repaired shard's counters restart with its recovered
// incarnation.
func (c *Cluster) ClusterMetrics() ClusterMetrics {
	shards := c.shardList()
	v := c.table.View()
	cm := ClusterMetrics{Shards: len(shards)}
	cm.Fault = FaultMetrics{
		ShedOps:       c.shed.Load(),
		Retries:       c.retries.Load(),
		RetriesDenied: c.retriesDenied.Load(),
	}
	cm.Topology = TopologyMetrics{
		Epoch:      v.Epoch,
		RoutingGen: v.Gen,
		Shards:     v.Shards(),
		Migrating:  v.Migrating(),
		MovesDone:  c.movesDone.Load(),
		Redirects:  c.redirects.Load(),
		AutoSplits: c.autoSplits.Load(),
	}
	for _, sh := range shards {
		m := sh.db.Load().Metrics()
		cm.PerShard = append(cm.PerShard, m)
		mergeMetrics(&cm.Agg, &m)
		hs := sh.health.Stats()
		cm.Health = append(cm.Health, ShardHealthMetrics{
			State:     ShardState(hs.State),
			Permanent: hs.Permanent,
			Failures:  hs.Failures,
			Trips:     hs.Trips,
			Repairs:   hs.Repairs,
			Cause:     hs.Cause,
		})
		cm.Fault.Trips += hs.Trips
		cm.Fault.Repairs += hs.Repairs
	}
	sort.Slice(cm.Agg.Contention.HotLeaves, func(i, j int) bool {
		return cm.Agg.Contention.HotLeaves[i].Total > cm.Agg.Contention.HotLeaves[j].Total
	})
	return cm
}

// mergeMetrics folds src into dst. Counters add; percentiles and booleans
// merge conservatively (max / or).
func mergeMetrics(dst *Metrics, src *Metrics) {
	dst.Tx.Attempts += src.Tx.Attempts
	dst.Tx.Commits += src.Tx.Commits
	dst.Tx.Aborts += src.Tx.Aborts
	dst.Tx.Fallbacks += src.Tx.Fallbacks
	dst.Tx.WastedCycles += src.Tx.WastedCycles
	dst.Tx.TxLoads += src.Tx.TxLoads
	dst.Tx.TxStores += src.Tx.TxStores
	dst.Tx.BackoffCycles += src.Tx.BackoffCycles
	dst.Tx.DegradationEvents += src.Tx.DegradationEvents
	dst.Tx.WatchdogTrips += src.Tx.WatchdogTrips
	if len(src.Tx.AbortsByReason) > 0 && dst.Tx.AbortsByReason == nil {
		dst.Tx.AbortsByReason = map[string]uint64{}
	}
	for r, n := range src.Tx.AbortsByReason {
		dst.Tx.AbortsByReason[r] += n
	}
	dst.Resilience.Degraded = dst.Resilience.Degraded || src.Resilience.Degraded
	dst.Resilience.StormEvents += src.Resilience.StormEvents
	dst.Memory.LiveBytes += src.Memory.LiveBytes
	dst.Memory.PeakBytes += src.Memory.PeakBytes
	dst.Memory.ReservedBytes += src.Memory.ReservedBytes
	dst.Memory.CCMBytes += src.Memory.CCMBytes
	dst.Tree.Splits += src.Tree.Splits
	dst.Tree.Compactions += src.Tree.Compactions
	dst.Tree.MarkRejects += src.Tree.MarkRejects
	dst.Tree.RootRetries += src.Tree.RootRetries
	dst.Tree.MaintRounds += src.Tree.MaintRounds
	dst.Tree.EliminatedPairs += src.Tree.EliminatedPairs
	dst.Tree.CombinedBatches += src.Tree.CombinedBatches
	dst.Tree.CombinedOps += src.Tree.CombinedOps
	dst.Tree.CombinerHandoffs += src.Tree.CombinerHandoffs
	d, s := &dst.Durability, &src.Durability
	d.Enabled = d.Enabled || s.Enabled
	d.Flushes += s.Flushes
	d.FlushedFrames += s.FlushedFrames
	d.FlushedBytes += s.FlushedBytes
	if s.MaxBatch > d.MaxBatch {
		d.MaxBatch = s.MaxBatch
	}
	if d.Flushes > 0 {
		d.AvgBatch = float64(d.FlushedFrames) / float64(d.Flushes)
	}
	if s.FlushP50Ns > d.FlushP50Ns {
		d.FlushP50Ns = s.FlushP50Ns
	}
	if s.FlushP99Ns > d.FlushP99Ns {
		d.FlushP99Ns = s.FlushP99Ns
	}
	if s.FlushMaxNs > d.FlushMaxNs {
		d.FlushMaxNs = s.FlushMaxNs
	}
	d.Snapshots += s.Snapshots
	d.SnapshotErrors += s.SnapshotErrors
	d.RecoveryNs += s.RecoveryNs
	d.SnapshotPairs += s.SnapshotPairs
	d.ReplayedFrames += s.ReplayedFrames
	d.TornTails += s.TornTails
	dst.Contention.Enabled = dst.Contention.Enabled || src.Contention.Enabled
	dst.Contention.AbortsSeen += src.Contention.AbortsSeen
	dst.Contention.AbortsSampled += src.Contention.AbortsSampled
	dst.Contention.HotLeaves = append(dst.Contention.HotLeaves, src.Contention.HotLeaves...)
}
