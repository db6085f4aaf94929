package treetest

import (
	"runtime"
	"sync"
	"testing"

	"eunomia/internal/check"
	"eunomia/internal/htm"
	"eunomia/internal/vclock"
)

// Linearizability checking is delegated to internal/check: a complete
// per-key WGL checker over get/put/delete/scan histories, a deterministic
// schedule-exploration sweep over the lockstep scheduler, and fault
// injection at the named protocol points. This file adapts the kit's
// Factory to that subsystem and sets the per-tree budgets.

// sweepSeeds returns the exploration seed budget: 64 seeds in -short mode
// (the tier-1 floor) and a deeper sweep otherwise.
func sweepSeeds() int {
	if testing.Short() {
		return 64
	}
	return 128
}

// runLinearizabilitySweep explores seeded schedules (slack and fault
// variants per seed) in virtual time and checks every recorded history
// with the complete checker. A failure prints a shrunk one-command repro.
func runLinearizabilitySweep(t *testing.T, mk Factory) {
	name := treeName(mk)
	histories, fail := check.Sweep(name, check.Factory(mk), check.DefaultSweep(sweepSeeds()))
	if fail != nil {
		t.Fatal(fail)
	}
	t.Logf("%s: %d histories linearizable", name, histories)
}

// runLinearizabilityWall records a wall-clock (host-scheduler) history via
// the shared-counter timestamp mode and checks it. Nondeterministic, so it
// complements rather than replaces the sweep.
func runLinearizabilityWall(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 22)
	runLinearizabilityOn(t, mk, h, boot, func(w int) *htm.Thread {
		return h.NewThread(vclock.NewWallProc(w+1, 32), uint64(w)+13)
	})
}

// runLinearizabilityHost is the same recorded history on host threads:
// real goroutines racing the TL2 protocol at native speed. The Wall
// recorder's shared-counter timestamps are proc-independent, so the checker
// applies unchanged.
func runLinearizabilityHost(t *testing.T, mk Factory) {
	h, boot := NewDevice(1 << 22)
	runLinearizabilityOn(t, mk, h, boot, func(w int) *htm.Thread {
		return h.NewHostThread(w+1, uint64(w)+13)
	})
}

// runLinearizabilityOn is the shared body: build the tree on the supplied
// device, race workers (one thread each from mkThread) over a small hot
// universe, and check the recorded history with the complete checker.
//
// A worker on a host proc yields between recorded operations. Without
// that, a single-core scheduler runs each goroutine for a long quantum of
// native-speed ops while another sits descheduled *mid-op*; that open
// window chains the whole per-key history into one overlap chunk and
// overflows the checker's bitset budget. Yielding at op boundaries keeps
// windows short (wall threads already yield inside ops, every few charged
// cycles).
func runLinearizabilityOn(t *testing.T, mk Factory, h *htm.HTM, boot *htm.Thread, mkThread func(w int) *htm.Thread) {
	kv := mk(h, boot)
	rec := check.NewRecorder(kv, check.Wall)
	universe := make([]uint64, 10)
	for i := range universe {
		universe[i] = uint64(i)*7 + 3
	}
	rec.SetUniverse(universe)
	for i := 0; i < len(universe); i += 2 {
		k := universe[i]
		v := k<<20 | 0xF0000
		kv.Put(boot, k, v)
		rec.SetInitial(k, v)
	}
	workers, iters := 4, 250
	if testing.Short() {
		iters = 60
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := mkThread(w)
			hosted := vclock.IsHost(th.P)
			r := vclock.NewRand(uint64(w) + 101)
			for i := 0; i < iters; i++ {
				k := universe[r.Intn(len(universe))]
				val := k<<20 | uint64(w)<<16 | uint64(i)
				switch r.Intn(10) {
				case 0, 1, 2:
					rec.Put(th, k, val)
				case 3, 4:
					rec.Delete(th, k)
				case 5:
					rec.Scan(th, k, 3, func(_, _ uint64) bool { return true })
				default:
					rec.Get(th, k)
				}
				if hosted {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := check.Check(rec.History()); err != nil {
		t.Fatalf("wall-clock history rejected:\n%v", err)
	}
}

// faultWorkload is put-heavy over a wide universe so every tree splits
// during the run (mid-split coverage needs actual splits).
func faultWorkload(seed uint64) check.Workload {
	return check.Workload{
		Procs: 3, Ops: 80, Keys: 48,
		GetPct: 20, PutPct: 60, DelPct: 15, ScanPct: 5,
		Preload: true, Seed: seed,
	}
}

// runFaultInjection arms every fault point/action combination in turn and
// requires (a) the history stays linearizable, and (b) any point the tree
// visits actually fires (Nth=1). Mid-split coverage is asserted for every
// tree: the workload forces splits. Points a tree never reaches (e.g. the
// stitch on monolithic-HTM trees, Execute entry on the lock-based
// masstree) are exempt — the Euno-specific all-points assertion lives in
// internal/check/trees.
func runFaultInjection(t *testing.T, mk Factory) {
	name := treeName(mk)
	specs := []htm.FaultSpec{
		{Point: htm.FaultStitch, Action: htm.ActYield, Nth: 1},
		{Point: htm.FaultStitch, Action: htm.ActAbort, Nth: 2},
		{Point: htm.FaultMidSplit, Action: htm.ActYield, Nth: 1},
		{Point: htm.FaultMidSplit, Action: htm.ActAbort, Nth: 2},
		{Point: htm.FaultCCM, Action: htm.ActYield, Nth: 1},
		{Point: htm.FaultCCM, Action: htm.ActAbort, Nth: 2},
		{Point: htm.FaultFallback, Action: htm.ActFallback, Nth: 3},
	}
	seeds := 3
	if testing.Short() {
		seeds = 2
	}
	for _, spec := range specs {
		sawMidSplit := false
		for seed := 0; seed < seeds; seed++ {
			_, fi, err := check.RunWorkload(check.Factory(mk), faultWorkload(uint64(seed)), spec)
			if err != nil {
				t.Fatalf("%s under fault %s seed %d:\n%v", name, spec, seed, err)
			}
			// The counter is monotonic, so reaching Nth visits guarantees
			// the Nth-visit trigger fired at least once.
			if fi.Visits(spec.Point) >= spec.Nth && fi.Hits(spec.Point) == 0 {
				t.Fatalf("%s: fault %s visited %d times but never fired", name, spec, fi.Visits(spec.Point))
			}
			if fi.Visits(htm.FaultMidSplit) > 0 {
				sawMidSplit = true
			}
		}
		if spec.Point == htm.FaultMidSplit && spec.Action == htm.ActYield && !sawMidSplit {
			t.Fatalf("%s: workload produced no splits; mid-split fault point untested", name)
		}
	}
}

// treeName builds a throwaway instance to learn the tree's name for repro
// lines and logs.
func treeName(mk Factory) string {
	h, boot := NewDevice(1 << 18)
	return mk(h, boot).Name()
}
