package htm

import (
	"strings"
	"testing"

	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

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

// TestDefaultPathDrawsNoRandomness: Execute must never touch the thread RNG
// — the workload draws its keys from it, so a stray draw in the retry loop
// would move every bit-identical figure.
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

// TestLemmingWaitReducesLockAborts: with a hog on the fallback lock, the
// default policy burns an AbortFallbackLock per retry (the lemming storm);
// Config.LemmingWait must complete the same schedule with strictly fewer of
// them.
func TestLemmingWaitReducesLockAborts(t *testing.T) {
	run := func(lemmingWait bool) uint64 {
		a := simmem.NewArena(1 << 16)
		cfg := DefaultConfig
		cfg.LemmingWait = lemmingWait
		h := New(a, cfg)
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
					th.Execute(DefaultPolicy, func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
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
	fragileAborts := run(false)
	lemmingAborts := run(true)
	if fragileAborts == 0 {
		t.Fatal("hog produced no fallback-lock aborts under the fragile policy")
	}
	if lemmingAborts >= fragileAborts {
		t.Fatalf("LemmingWait did not reduce lock aborts: %d vs fragile %d", lemmingAborts, fragileAborts)
	}
}

// TestRunFallbackPanicReleasesLock is the regression test for the
// fallback-lock leak: a panicking body must release the lock so the device
// stays usable.
func TestRunFallbackPanicReleasesLock(t *testing.T) {
	a := simmem.NewArena(1 << 14)
	h := New(a, DefaultConfig)
	p := vclock.NewWallProc(1, 0)
	th := h.NewThread(p, 1)
	x := a.AllocAligned(p, 8, simmem.TagKeys)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("body panic did not propagate")
			}
		}()
		th.RunFallback(func(tx *Tx) { panic("body exploded") })
	}()
	if h.FallbackHeld() {
		t.Fatal("fallback lock leaked across a body panic")
	}
	// The device must still work on both paths.
	if ok, reason := th.Run(func(tx *Tx) { tx.Store(x, 1) }); !ok {
		t.Fatalf("post-panic transaction aborted (%s)", reason)
	}
	th.RunFallback(func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
	if got := a.LoadWord(p, x); got != 2 {
		t.Fatalf("post-panic effects = %d, want 2", got)
	}
}

// TestFaultSpecSyntax: every fault point's spec round-trips through
// ParseFaultSpec, and a point this version does not have is refused by name,
// so an old repro token fails at parse time instead of arming nothing.
func TestFaultSpecSyntax(t *testing.T) {
	for _, spec := range []string{"stitch:yield:1", "midsplit:abort:2", "ccm:yield:3", "fallback:fallback:1"} {
		s, err := ParseFaultSpec(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		if s.String() != spec {
			t.Fatalf("spec %q round-tripped to %q", spec, s.String())
		}
	}
	for _, spec := range []string{"combine:yield:1", "storm:yield:1", "watchdog:yield:2", "qlock:abort:1"} {
		if _, err := ParseFaultSpec(spec); err == nil || !strings.Contains(err.Error(), "unknown fault point") {
			t.Fatalf(`ParseFaultSpec(%q) = %v, want an "unknown fault point" error`, spec, err)
		}
	}
}
