package eunomia

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"eunomia/internal/shard"
)

// Cluster fault domains: each shard carries a circuit breaker
// (internal/shard.Health) so one dead disk degrades one slice of the key
// space instead of the whole cluster, and a background repair loop
// reopens Failed durable shards — WAL replay through the ordinary Open
// recovery path, then a probation window — before re-admitting them.
//
// Error taxonomy, as seen by Session callers:
//
//	ErrClosed            — the *cluster* was shut down (Close was called).
//	ErrShardUnavailable  — the owning *shard* failed; the cluster is up
//	                       and other shards keep serving. Always carried
//	                       by a *ShardError with the shard index, its
//	                       health state, and the root cause.
//	ErrReservedValue     — the caller's error; never a health signal.
//
// Transient vs permanent: at operation time every shard failure is
// treated as transient (an IO error, a crashed fault-injected FS, a
// store closed mid-repair — all potentially fixable by reopening from
// disk), so the breaker trips and repair retries. The permanent verdict
// is reached by the repair loop itself: a reopened shard whose recovery
// ends below the durable watermark captured at trip time has lost
// acknowledged writes (swapped disk, truncated directory) — repair
// refuses re-admission and parks the shard in Failed permanently rather
// than serving the hole.

// ErrShardUnavailable is the errors.Is sentinel for "the owning shard
// could not serve this operation": its breaker is open, or the operation
// failed at the shard and was not retried. Distinct from ErrClosed,
// which means the cluster itself was shut down.
var ErrShardUnavailable = errors.New("eunomia: shard unavailable")

// errShardStopped stands in for a shard DB's ErrClosed when the cluster
// itself is still open (the repair loop closes a dead shard's store
// before reopening it): surfacing the raw ErrClosed would make "shard 3
// died" indistinguishable from "cluster shut down" under errors.Is.
var errShardStopped = errors.New("eunomia: shard store closed for repair")

// ShardState is a shard's serving state as reported by the health
// breaker (see internal/shard.Health for the full machine); its String
// names it.
type ShardState = shard.State

const (
	// ShardHealthy shards serve normally.
	ShardHealthy = shard.Healthy
	// ShardDegraded shards have seen recent failures but still serve.
	ShardDegraded = shard.Degraded
	// ShardFailed shards have an open breaker: routed ops fail fast.
	ShardFailed = shard.Failed
	// ShardRecovering shards are reopened but on probation, not serving.
	ShardRecovering = shard.Recovering
)

// ShardError reports an operation the owning shard could not serve. It
// matches ErrShardUnavailable under errors.Is, and Unwraps to the root
// cause (the IO error, the injected fault, ...).
type ShardError struct {
	// Shard is the failing shard's index.
	Shard int
	// State is the shard's health state when the error was built.
	State ShardState
	// Cause is the root cause; nil only when the breaker was already open
	// and no cause was recorded.
	Cause error
}

// Error formats "shard N <state>: cause".
func (e *ShardError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("eunomia: shard %d %s", e.Shard, e.State)
	}
	return fmt.Sprintf("eunomia: shard %d %s: %v", e.Shard, e.State, e.Cause)
}

// Unwrap exposes the root cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Cause }

// Is matches the ErrShardUnavailable sentinel.
func (e *ShardError) Is(target error) bool { return target == ErrShardUnavailable }

// HealthOptions configures the per-shard circuit breaker. The breaker is
// on by default; the zero value picks the defaults.
type HealthOptions struct {
	// Disable turns the fault-domain layer off entirely, restoring the
	// all-or-nothing error surface: shard errors return raw, nothing
	// trips, nothing repairs.
	Disable bool
	// Window is the sliding window of recent outcomes scored per shard
	// (max 64; default 32).
	Window int
	// TripFailures is the failure count within Window that trips a shard
	// Degraded → Failed (default 5). Eight consecutive successes clear
	// Degraded → Healthy.
	TripFailures int
}

// retryBudget caps the retry tokens a Session banks per shard: a transient
// op failure is retried at most once and only while a token is banked
// (tokens accrue with successes), so retries cannot amplify a failure
// storm.
const retryBudget = 3

// retryEarnEvery is how many successes earn back one retry token.
const retryEarnEvery = 8

// RepairOptions configures the self-healing repair loop. Repair is on by
// default for durable shards (a non-durable shard has no disk to reopen
// from — reopening would resurrect an empty tree, so Failed non-durable
// shards stay failed); the zero value picks the defaults.
type RepairOptions struct {
	// Disable turns self-healing off: Failed shards stay failed until the
	// cluster is reopened.
	Disable bool
	// Backoff is the initial reopen backoff (default 100ms); each failed
	// attempt doubles it up to MaxBackoff (default 5s), with jitter.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Probes is the probation window: consecutive successful sync+read
	// probe rounds required before re-admission (default 3), spaced
	// ProbeInterval apart (default 10ms).
	Probes        int
	ProbeInterval time.Duration
	// AdmitBeforeReplay deliberately breaks the repair loop — the shard is
	// reopened with recovery disabled and re-admitted with no probation
	// and no watermark check — so the crash fuzzer can prove the probation
	// gate catches the resulting loss of acknowledged writes. Never
	// enable it for real data.
	AdmitBeforeReplay bool
}

func (r RepairOptions) withDefaults() RepairOptions {
	if r.Backoff <= 0 {
		r.Backoff = 100 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 5 * time.Second
	}
	if r.MaxBackoff < r.Backoff {
		r.MaxBackoff = r.Backoff
	}
	if r.Probes <= 0 {
		r.Probes = 3
	}
	if r.ProbeInterval <= 0 {
		r.ProbeInterval = 10 * time.Millisecond
	}
	return r
}

// ShardHealthMetrics is one shard's breaker snapshot in ClusterMetrics:
// its State, whether it is Permanent (Failed with no legal path back),
// lifetime Failures, Trips and Repairs, and the last failure Cause.
type ShardHealthMetrics = shard.HealthStats

// FaultMetrics aggregates the fault-domain layer in ClusterMetrics.
type FaultMetrics struct {
	// Trips and Repairs sum the per-shard breaker counters.
	Trips   uint64
	Repairs uint64
	// ShedOps counts operations failed fast at an open breaker without
	// touching the shard.
	ShedOps uint64
	// Retries and RetriesDenied count budgeted retries spent and retries
	// refused for lack of a banked token.
	Retries       uint64
	RetriesDenied uint64
}

// ShardState returns shard i's current health state — Healthy shards
// serve; Failed shards fail fast until the repair loop re-admits them.
func (c *Cluster) ShardState(i int) ShardState {
	return c.shard(i).health.State()
}

// unavailable builds the fail-fast error for a breaker-open shard.
func (c *Cluster) unavailable(i int) *ShardError {
	h := c.shard(i).health
	return &ShardError{Shard: i, State: h.State(), Cause: h.Cause()}
}

// shardFailed scores err against sh's breaker — a trip captures the
// durable watermark and starts repair — and returns the error to surface:
// a *ShardError carrying the cause, or err itself with the health layer
// off. A shard DB's ErrClosed while the cluster is open means the store
// was stopped (by the repair loop or a direct close), not that the cluster
// shut down, so it is recorded as errShardStopped.
func (c *Cluster) shardFailed(sh *clusterShard, err error) error {
	if !c.healthOn {
		return err
	}
	if errors.Is(err, ErrClosed) {
		err = errShardStopped
	}
	if sh.health.RecordFailure(err, false) {
		c.tripped(sh)
	}
	return &ShardError{Shard: sh.idx, State: sh.health.State(), Cause: err}
}

// earnRetry banks success toward a retry token, up to the cap.
func (s *Session) earnRetry(i int) {
	if s.tokens[i] >= retryBudget {
		s.earned[i] = 0
		return
	}
	if s.earned[i]++; s.earned[i] >= retryEarnEvery {
		s.earned[i] = 0
		s.tokens[i]++
	}
}

// spendRetry consumes a banked token, reporting whether one was held.
func (s *Session) spendRetry(i int) bool {
	if s.tokens[i] > 0 {
		s.tokens[i]--
		return true
	}
	return false
}

// tripped handles a breaker trip: capture the shard's durable watermark
// (the floor its repaired incarnation must recover past) and start the
// repair goroutine — at most one per shard, never after Close, and never
// for a shard that cannot be repaired (non-durable, or permanently
// failed). A panic under the loop (a filesystem blowing up inside Open)
// parks the shard Failed for good instead of taking the process down.
func (c *Cluster) tripped(sh *clusterShard) {
	if db := sh.db.Load(); db != nil {
		wm := db.durableLSN()
		for {
			cur := sh.watermark.Load()
			if wm <= cur || sh.watermark.CompareAndSwap(cur, wm) {
				break
			}
		}
	}
	if c.repair.Disable || sh.opts.Durability.Dir == "" || sh.health.Permanent() ||
		!sh.repairing.CompareAndSwap(false, true) {
		return
	}
	done := func(err error) {
		if err != nil {
			sh.health.RefuseRecovery(err, true) // from probation
			sh.health.Trip(err, true)           // from Failed
		}
		sh.repairing.Store(false)
	}
	if !c.spawn(func() error { c.repairLoop(sh); return nil }, done) {
		sh.repairing.Store(false)
	}
}

// repairLoop brings a Failed shard back: close the dead store, retry
// Open (which replays the WAL through the ordinary recovery path) from
// Repair.Backoff, then gate re-admission behind the durable-watermark
// check and a probation window of successful probes. Runs until
// re-admission, a permanent verdict, or Close.
func (c *Cluster) repairLoop(sh *clusterShard) {
	// Release the dead store first: Close is idempotent, and a poisoned
	// WAL never re-acknowledges, so nothing durable is lost here.
	if old := sh.db.Load(); old != nil {
		old.Close()
	}
	r := c.repair
	c.retry(nil, "", r.Backoff, func() error {
		opts := sh.opts
		if r.AdmitBeforeReplay {
			// DELIBERATELY BROKEN (see RepairOptions): reopen with recovery
			// disabled so the crash fuzzer can prove the probation gate
			// catches premature re-admission.
			opts.Durability = Durability{}
		}
		db, err := Open(opts)
		if err != nil {
			return err // disk still gone; back off and retry
		}
		if r.AdmitBeforeReplay {
			sh.health.BeginRecovery()
			sh.db.Store(db)
			sh.gen.Add(1)
			sh.health.Admit()
			return nil
		}
		if !sh.health.BeginRecovery() {
			// A permanent verdict raced in; stand down.
			db.Close()
			return nil
		}
		if got, want := db.recoveredSeq(), sh.watermark.Load(); got < want {
			db.Close()
			sh.health.RefuseRecovery(fmt.Errorf(
				"eunomia: shard %d recovered to LSN %d but its durable watermark was %d: acknowledged writes are missing",
				sh.idx, got, want), true)
			return nil
		}
		if err := c.probe(db); err != nil {
			// Transient probation failure: back off and reopen fresh.
			db.Close()
			sh.health.RefuseRecovery(err, false)
			return err
		}
		sh.db.Store(db)
		sh.gen.Add(1)
		sh.health.Admit()
		return nil
	})
}

// probe runs the probation window against a candidate DB: Probes
// consecutive successful sync+read rounds spaced ProbeInterval apart,
// returning the first failure.
func (c *Cluster) probe(db *DB) error {
	th := db.NewThread()
	defer th.Close()
	for p := 0; p < c.repair.Probes; p++ {
		if p > 0 && !c.sleepUnlessClosed(c.repair.ProbeInterval) {
			return ErrClosed
		}
		if err := db.Sync(); err != nil {
			return err
		}
		if _, _, err := th.Get(0); err != nil {
			return err
		}
	}
	return nil
}

// reshardStallFactor × Repair.MaxBackoff is how long one step of a
// migration may fail before Reshard stops waiting (the engine does not).
const reshardStallFactor = 4

// errShardGone marks a step no retry can complete: its shard is parked.
var errShardGone = errors.New("eunomia: shard permanently failed")

// retry is the control plane's one retry loop: it calls step until step
// succeeds (nil), sleeping between attempts with capped, jittered
// exponential backoff — first (a millisecond for the migration engine,
// Repair.Backoff for the repair loop), doubling to Repair.MaxBackoff. It
// gives up with ErrClosed when the cluster closes and with step's error
// when that wraps errShardGone. A migration's step (m non-nil, what naming
// it) reports every failure past the stall bound on m.stall.
func (c *Cluster) retry(m *migration, what string, first time.Duration, step func() error) error {
	start, backoff := time.Now(), first
	// A jitter stream of this loop's own (no global RNG: retries must not
	// perturb seeded tests' randomness), distinct from concurrent loops'.
	rng := uint64(start.UnixNano())
	for !c.closed.Load() {
		err := step()
		if err == nil || errors.Is(err, errShardGone) {
			return err
		}
		if since := time.Since(start); m != nil && since > reshardStallFactor*c.repair.MaxBackoff {
			select {
			case m.stall <- fmt.Errorf("eunomia: reshard: %s has not succeeded in %v; the migration keeps retrying in the background: %w",
				what, since.Round(time.Millisecond), err):
			default:
			}
		}
		rng = shard.Mix(rng)
		if !c.sleepUnlessClosed(backoff/2 + time.Duration(rng%uint64(backoff/2+1))) {
			break
		}
		backoff = min(2*backoff, c.repair.MaxBackoff)
	}
	return ErrClosed
}

// spawn starts fn on a goroutine that Close waits for, or reports false,
// starting nothing, when the cluster is already closed: Close's Wait either
// observes this Add or spawn observes closed, never an Add racing a Wait
// at zero. done receives fn's error when it ends, a panic in fn recovered
// into it: no goroutine the cluster starts can kill the process.
func (c *Cluster) spawn(fn func() error, done func(error)) bool {
	c.repairMu.Lock()
	if c.closed.Load() {
		c.repairMu.Unlock()
		return false
	}
	c.bg.Add(1)
	c.repairMu.Unlock()
	go func() {
		defer c.bg.Done()
		var err error
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("eunomia: cluster goroutine panicked: %v\n%s", r, debug.Stack())
			}
			done(err)
		}()
		err = fn()
	}()
	return true
}

// sleepUnlessClosed waits d, returning false early if the cluster is
// closing.
func (c *Cluster) sleepUnlessClosed(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.stop:
		return false
	case <-t.C:
		return true
	}
}
