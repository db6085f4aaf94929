package htm

import (
	"strings"
	"testing"

	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// alwaysAbortBody explicitly aborts every transactional attempt but runs to
// completion on the fallback path, where Abort is unavailable by design.
func alwaysAbortBody(dst simmem.Addr) func(*Tx) {
	return func(tx *Tx) {
		if !tx.Direct() {
			tx.Abort(0x51)
		}
		tx.Store(dst, tx.Load(dst)+1)
	}
}

// TestZeroValuePolicyIsDefault: the zero RetryPolicy must behave exactly
// like DefaultPolicy, not "fall back on the first abort" — the footgun was
// that a forgotten policy silently serialized every contended execution.
func TestZeroValuePolicyIsDefault(t *testing.T) {
	if got := (RetryPolicy{}).normalized(); got != DefaultPolicy {
		t.Fatalf("zero policy normalized to %+v, want DefaultPolicy %+v", got, DefaultPolicy)
	}
	// Behavioral check: a capacity-overflowing body under the zero policy
	// must retry DefaultPolicy.Capacity times before the fallback.
	a := simmem.NewArena(1 << 16)
	h := New(a, Config{MaxReadLines: 4, MaxWriteLines: 64})
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, 16*simmem.WordsPerLine, simmem.TagKeys)
	th.Execute(RetryPolicy{}, func(tx *Tx) {
		for i := 0; i < 8; i++ {
			tx.Load(base + simmem.Addr(i*simmem.WordsPerLine))
		}
	})
	if want := uint64(DefaultPolicy.Capacity) + 1; th.Stats.Aborts[AbortCapacity] != want {
		t.Fatalf("capacity aborts = %d, want %d (zero policy must retry like DefaultPolicy)",
			th.Stats.Aborts[AbortCapacity], want)
	}
	if th.Stats.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", th.Stats.Fallbacks)
	}
}

// TestNoRetrySentinel: NoRetry requests explicitly zero retries for a
// reason, i.e. fall back on that reason's first abort.
func TestNoRetrySentinel(t *testing.T) {
	a := simmem.NewArena(1 << 16)
	h := New(a, Config{MaxReadLines: 4, MaxWriteLines: 64})
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, 16*simmem.WordsPerLine, simmem.TagKeys)
	th.Execute(RetryPolicy{Capacity: NoRetry}, func(tx *Tx) {
		for i := 0; i < 8; i++ {
			tx.Load(base + simmem.Addr(i*simmem.WordsPerLine))
		}
	})
	if th.Stats.Aborts[AbortCapacity] != 1 {
		t.Fatalf("capacity aborts = %d, want 1 (NoRetry means first abort falls back)",
			th.Stats.Aborts[AbortCapacity])
	}
	if th.Stats.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", th.Stats.Fallbacks)
	}
}

// TestDefaultPathDrawsNoRandomness: the paper-faithful DefaultPolicy must
// never touch the thread RNG (backoff is the only consumer), so enabling
// the resilience *code* cannot perturb the bit-identical default figures.
func TestDefaultPathDrawsNoRandomness(t *testing.T) {
	a := simmem.NewArena(1 << 16)
	h := New(a, DefaultConfig)
	p := vclock.NewWallProc(1, 0)
	const seed = 99
	th := h.NewThread(p, seed)
	x := a.AllocAligned(p, 8, simmem.TagKeys)
	for i := 0; i < 50; i++ {
		th.Execute(DefaultPolicy, func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
	}
	if got, want := th.Rand.Uint64(), vclock.NewRand(seed).Uint64(); got != want {
		t.Fatalf("default-path Execute consumed RNG draws: next=%d, fresh=%d", got, want)
	}
}

// TestBackoffDeterminism: two identical contended simulations under the
// resilient policy must produce bit-identical virtual clocks and backoff
// accounting — the randomized pauses come from the deterministic thread RNG.
func TestBackoffDeterminism(t *testing.T) {
	run := func() (makespan, backoff, commits uint64) {
		a := simmem.NewArena(1 << 16)
		h := New(a, DefaultConfig)
		boot := vclock.NewWallProc(0, 0)
		x := a.AllocAligned(boot, 8, simmem.TagKeys)
		pol := ResilientPolicy()
		sim := vclock.NewSim(8, 0)
		stats := make([]Stats, 8)
		sim.Run(func(p *vclock.SimProc) {
			th := h.NewThread(p, uint64(p.ID())*31+7)
			for i := 0; i < 200; i++ {
				th.Execute(pol, func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
			}
			stats[p.ID()] = th.Stats
		})
		var m Stats
		for i := range stats {
			m.Merge(&stats[i])
		}
		return sim.MaxClock(), m.BackoffCycles, m.Commits
	}
	m1, b1, c1 := run()
	m2, b2, c2 := run()
	if m1 != m2 || b1 != b2 || c1 != c2 {
		t.Fatalf("resilient runs diverged: makespan %d vs %d, backoff %d vs %d, commits %d vs %d",
			m1, m2, b1, b2, c1, c2)
	}
	if b1 == 0 {
		t.Fatal("contended resilient run recorded no backoff cycles")
	}
}

// TestWatchdogBudget: an execution whose aborts never trip a per-reason
// threshold must still be bounded by AttemptBudget and complete on the
// guaranteed fallback path — the no-starvation property.
func TestWatchdogBudget(t *testing.T) {
	a := simmem.NewArena(1 << 14)
	h := New(a, DefaultConfig)
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	x := a.AllocAligned(p, 8, simmem.TagKeys)

	const budget = 5
	// Explicit threshold (16) is far above the budget, so only the watchdog
	// can end this execution.
	th.Execute(RetryPolicy{AttemptBudget: budget}, alwaysAbortBody(x))
	if th.Stats.WatchdogTrips != 1 {
		t.Fatalf("watchdog trips = %d, want 1 (%s)", th.Stats.WatchdogTrips, th.Stats.String())
	}
	if th.Stats.Attempts != budget {
		t.Fatalf("attempts = %d, want exactly the budget %d", th.Stats.Attempts, budget)
	}
	if th.Stats.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", th.Stats.Fallbacks)
	}
	if got := a.LoadWord(p, x); got != 1 {
		t.Fatalf("effect applied %d times, want exactly once", got)
	}
	if h.FallbackHeld() {
		t.Fatal("fallback lock leaked")
	}
}

// TestLemmingWaitReducesLockAborts: with a hog on the fallback lock, the
// default policy burns an AbortFallbackLock per retry (the lemming storm);
// LemmingWait must complete the same schedule with strictly fewer of them.
func TestLemmingWaitReducesLockAborts(t *testing.T) {
	run := func(pol RetryPolicy) uint64 {
		a := simmem.NewArena(1 << 16)
		h := New(a, DefaultConfig)
		boot := vclock.NewWallProc(0, 0)
		x := a.AllocAligned(boot, 8, simmem.TagKeys)
		y := a.AllocAligned(boot, 8, simmem.TagKeys)
		sim := vclock.NewSim(4, 0)
		stats := make([]Stats, 4)
		sim.Run(func(p *vclock.SimProc) {
			th := h.NewThread(p, uint64(p.ID())+1)
			if p.ID() == 0 {
				for i := 0; i < 30; i++ {
					th.RunFallback(func(tx *Tx) {
						tx.Store(y, tx.Load(y)+1)
						tx.Proc().Tick(5_000) // sit on the lock
					})
				}
			} else {
				for i := 0; i < 100; i++ {
					th.Execute(pol, func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
				}
			}
			stats[p.ID()] = th.Stats
		})
		var m Stats
		for i := range stats {
			m.Merge(&stats[i])
		}
		if got := a.LoadWord(boot, x); got != 300 {
			t.Fatalf("lost updates: count = %d, want 300", got)
		}
		return m.Aborts[AbortFallbackLock]
	}
	lemming := DefaultPolicy
	lemming.LemmingWait = true
	fragileAborts := run(DefaultPolicy)
	lemmingAborts := run(lemming)
	if fragileAborts == 0 {
		t.Fatal("hog produced no fallback-lock aborts under the fragile policy")
	}
	if lemmingAborts >= fragileAborts {
		t.Fatalf("LemmingWait did not reduce lock aborts: %d vs fragile %d", lemmingAborts, fragileAborts)
	}
}

// TestStormDetectorHysteresis unit-tests the sliding-window engage /
// cooldown / recover cycle.
func TestStormDetectorHysteresis(t *testing.T) {
	d := newStormDetector(StormConfig{Window: 10, Threshold: 0.5, CooldownWindows: 2})
	feed := func(n int, aborted bool) {
		for i := 0; i < n; i++ {
			d.note(aborted)
		}
	}
	feed(10, true) // one all-abort window
	if !d.degraded.Load() || d.events.Load() != 1 {
		t.Fatalf("detector did not engage: degraded=%v events=%d", d.degraded.Load(), d.events.Load())
	}
	feed(10, false) // first calm window: still cooling down
	if !d.degraded.Load() {
		t.Fatal("detector recovered before CooldownWindows calm windows")
	}
	feed(10, false) // second calm window: recover
	if d.degraded.Load() {
		t.Fatal("detector failed to recover after cooldown")
	}
	feed(10, true) // storms re-engage
	if !d.degraded.Load() || d.events.Load() != 2 {
		t.Fatalf("detector did not re-engage: degraded=%v events=%d", d.degraded.Load(), d.events.Load())
	}
	// A mixed window below threshold while healthy must not engage.
	feed(4, true)
	feed(6, false)
	if d.events.Load() != 2 {
		t.Fatal("sub-threshold window engaged degradation")
	}
	if newStormDetector(StormConfig{}) != nil {
		t.Fatal("zero StormConfig must disable the detector")
	}
}

// TestStormDegradationEndToEnd: a device-wide abort storm must flip the
// detector, serialize subsequent Executes through the fallback (counted as
// DegradationEvents), and recover once the diet turns calm — with every
// operation's effect still applied exactly once.
func TestStormDegradationEndToEnd(t *testing.T) {
	a := simmem.NewArena(1 << 16)
	cfg := DefaultConfig
	cfg.Storm = StormConfig{Window: 16, Threshold: 0.5, CooldownWindows: 1}
	h := New(a, cfg)
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	x := a.AllocAligned(p, 8, simmem.TagKeys)
	y := a.AllocAligned(p, 8, simmem.TagKeys)

	// Storm phase: every attempt aborts, so each Execute feeds the window
	// 17 abort samples (Explicit threshold 16) before its fallback.
	const stormOps = 4
	for i := 0; i < stormOps; i++ {
		th.Execute(DefaultPolicy, alwaysAbortBody(x))
	}
	if !h.Degraded() {
		t.Fatalf("detector not engaged after %d all-abort executions (events=%d)", stormOps, h.StormEvents())
	}
	if h.StormEvents() == 0 {
		t.Fatal("no storm events recorded")
	}

	// Degraded phase: even a benign body serializes through the fallback.
	before := th.Stats.Fallbacks
	th.Execute(DefaultPolicy, func(tx *Tx) { tx.Store(y, tx.Load(y)+1) })
	if th.Stats.DegradationEvents == 0 {
		t.Fatal("degraded Execute not counted as a DegradationEvent")
	}
	if th.Stats.Fallbacks != before+1 {
		t.Fatal("degraded Execute did not serialize through the fallback")
	}

	// Calm diet: degraded executions feed calm samples; the detector must
	// disengage and HTM execution resume.
	calm := func(tx *Tx) { tx.Store(y, tx.Load(y)+1) }
	for i := 0; i < 64 && h.Degraded(); i++ {
		th.Execute(DefaultPolicy, calm)
	}
	if h.Degraded() {
		t.Fatal("detector never recovered on a calm diet")
	}
	commitsBefore := th.Stats.Commits
	th.Execute(DefaultPolicy, calm)
	if th.Stats.Commits != commitsBefore+1 {
		t.Fatal("post-recovery Execute did not commit transactionally")
	}
	if got := a.LoadWord(p, x); got != stormOps {
		t.Fatalf("storm-phase effects applied %d times, want %d", got, stormOps)
	}
}

// TestQueuedFallbackFairness: the ticket lock must preserve mutual
// exclusion and hand the lock off FIFO — with every thread re-queuing
// immediately, per-thread acquisition counts stay within a bounded skew at
// every prefix of the service order (a spinning hog cannot starve waiters).
func TestQueuedFallbackFairness(t *testing.T) {
	a := simmem.NewArena(1 << 16)
	cfg := DefaultConfig
	cfg.QueuedFallback = true
	h := New(a, cfg)
	boot := vclock.NewWallProc(0, 0)
	x := a.AllocAligned(boot, 8, simmem.TagKeys)

	const threads, rounds = 4, 40
	var order []int
	sim := vclock.NewSim(threads, 0)
	bad := 0
	sim.Run(func(p *vclock.SimProc) {
		th := h.NewThread(p, uint64(p.ID())+1)
		for i := 0; i < rounds; i++ {
			th.RunFallback(func(tx *Tx) {
				v0, v1 := tx.Load(x), tx.Load(x+1)
				if v0 != v1 {
					bad++
				}
				tx.Store(x, v0+1)
				tx.Store(x+1, v1+1)
				// Lockstep: only one goroutine runs at a time, so the
				// append is race-free and the order deterministic.
				order = append(order, p.ID())
			})
		}
	})
	if bad != 0 {
		t.Fatalf("%d mutual-exclusion violations under the ticket lock", bad)
	}
	if got := a.LoadWord(boot, x); got != threads*rounds {
		t.Fatalf("count = %d, want %d", got, threads*rounds)
	}
	counts := make([]int, threads)
	for _, id := range order {
		counts[id]++
		mn, mx := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		// A finished thread stops re-queuing, so skew can only exceed the
		// FIFO bound once some thread has completed all its rounds.
		if mx-mn > 2 && mn < rounds {
			t.Fatalf("ticket lock served unfairly: counts %v after %d acquisitions", counts, len(order))
		}
	}
	if h.FallbackHeld() {
		t.Fatal("ticket lock left held")
	}
}

// TestRunFallbackPanicReleasesLock is the regression test for the
// fallback-lock leak: a panicking body must release the lock (and, with the
// ticket lock, advance the serving counter) so the device stays usable.
func TestRunFallbackPanicReleasesLock(t *testing.T) {
	for _, queued := range []bool{false, true} {
		cfg := DefaultConfig
		cfg.QueuedFallback = queued
		a := simmem.NewArena(1 << 14)
		h := New(a, cfg)
		p := vclock.NewWallProc(1, 0)
		th := h.NewThread(p, 1)
		x := a.AllocAligned(p, 8, simmem.TagKeys)

		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("queued=%v: body panic did not propagate", queued)
				}
			}()
			th.RunFallback(func(tx *Tx) { panic("body exploded") })
		}()
		if h.FallbackHeld() {
			t.Fatalf("queued=%v: fallback lock leaked across a body panic", queued)
		}
		// The device must still work on both paths.
		if ok, reason := th.Run(func(tx *Tx) { tx.Store(x, 1) }); !ok {
			t.Fatalf("queued=%v: post-panic transaction aborted (%s)", queued, reason)
		}
		th.RunFallback(func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
		if got := a.LoadWord(p, x); got != 2 {
			t.Fatalf("queued=%v: post-panic effects = %d, want 2", queued, got)
		}
	}
}

// TestResilienceFaultPointsCovered extends the fault-point coverage
// acceptance to the resilience layer: storm, watchdog, and qlock must be
// both visited and fired by deterministic scenarios, and their spec syntax
// must round-trip.
func TestResilienceFaultPointsCovered(t *testing.T) {
	for _, spec := range []string{"storm:yield:1", "watchdog:yield:2", "qlock:abort:1"} {
		s, err := ParseFaultSpec(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		if s.String() != spec {
			t.Fatalf("spec %q round-tripped to %q", spec, s.String())
		}
	}
	// A point this version does not have is refused by name, so an old
	// repro token fails at parse time instead of arming nothing.
	if _, err := ParseFaultSpec("combine:yield:1"); err == nil || !strings.Contains(err.Error(), "unknown fault point") {
		t.Fatalf(`ParseFaultSpec("combine:yield:1") = %v, want an "unknown fault point" error`, err)
	}

	// watchdog: the budget-bounded always-abort scenario.
	{
		a := simmem.NewArena(1 << 14)
		h := New(a, DefaultConfig)
		fi := NewFaultInjector(FaultSpec{Point: FaultWatchdog, Action: ActYield, Nth: 1})
		h.SetFaultInjector(fi)
		th := h.NewThread(vclock.NewWallProc(1, 0), 1)
		x := a.AllocAligned(th.P, 8, simmem.TagKeys)
		th.Execute(RetryPolicy{AttemptBudget: 3}, alwaysAbortBody(x))
		if fi.Hits(FaultWatchdog) == 0 {
			t.Fatalf("watchdog point never fired (visits=%d)", fi.Visits(FaultWatchdog))
		}
	}

	// qlock: every ticket acquisition visits the point.
	{
		a := simmem.NewArena(1 << 14)
		cfg := DefaultConfig
		cfg.QueuedFallback = true
		h := New(a, cfg)
		fi := NewFaultInjector(FaultSpec{Point: FaultQLock, Action: ActYield, Nth: 1})
		h.SetFaultInjector(fi)
		th := h.NewThread(vclock.NewWallProc(1, 0), 1)
		x := a.AllocAligned(th.P, 8, simmem.TagKeys)
		th.RunFallback(func(tx *Tx) { tx.Store(x, 1) })
		if fi.Hits(FaultQLock) != 1 {
			t.Fatalf("qlock hits = %d, want 1", fi.Hits(FaultQLock))
		}
	}

	// storm: the degradation redirect fires the point.
	{
		a := simmem.NewArena(1 << 16)
		cfg := DefaultConfig
		cfg.Storm = StormConfig{Window: 16, Threshold: 0.5, CooldownWindows: 1}
		h := New(a, cfg)
		fi := NewFaultInjector(FaultSpec{Point: FaultStorm, Action: ActYield, Nth: 1})
		h.SetFaultInjector(fi)
		th := h.NewThread(vclock.NewWallProc(1, 0), 1)
		x := a.AllocAligned(th.P, 8, simmem.TagKeys)
		for i := 0; i < 4; i++ {
			th.Execute(DefaultPolicy, alwaysAbortBody(x))
		}
		th.Execute(DefaultPolicy, func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
		if fi.Hits(FaultStorm) == 0 {
			t.Fatalf("storm point never fired (visits=%d, degraded=%v)", fi.Visits(FaultStorm), h.Degraded())
		}
	}
}

// TestResilienceBundleHelpers pins the Apply/DeviceConfig identity contract:
// a disabled bundle must change nothing (the bit-identical-defaults
// guarantee), an enabled one must carry every knob across.
func TestResilienceBundleHelpers(t *testing.T) {
	if got := (Resilience{}).Apply(DefaultPolicy); got != DefaultPolicy {
		t.Fatalf("disabled Apply changed the policy: %+v", got)
	}
	if got := (Resilience{}).DeviceConfig(DefaultConfig); got != DefaultConfig {
		t.Fatalf("disabled DeviceConfig changed the config: %+v", got)
	}
	r := DefaultResilience()
	pol := r.Apply(DefaultPolicy)
	if pol.BackoffBase != r.BackoffBase || pol.BackoffMax != r.BackoffMax ||
		pol.LemmingWait != r.LemmingWait || pol.AttemptBudget != r.AttemptBudget {
		t.Fatalf("Apply dropped knobs: %+v", pol)
	}
	if pol.Conflict != DefaultPolicy.Conflict || pol.LockBusy != DefaultPolicy.LockBusy {
		t.Fatalf("Apply clobbered the base thresholds: %+v", pol)
	}
	cfg := r.DeviceConfig(DefaultConfig)
	if !cfg.QueuedFallback || cfg.Storm != r.Storm {
		t.Fatalf("DeviceConfig dropped knobs: %+v", cfg)
	}
}
