package check

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
)

// Factory builds a fresh tree over a fresh HTM device. It mirrors
// treetest.Factory (redeclared here so treetest can depend on check without
// a cycle).
type Factory func(h *htm.HTM, boot *htm.Thread) tree.KV

// Workload is one deterministic, seeded workload configuration for the
// schedule-exploration fuzzer. Identical Workload + Factory + FaultSpec
// always produce the identical history: the lockstep scheduler, the
// per-proc RNGs, and the fault injector's counters are all deterministic.
type Workload struct {
	Procs int    // virtual cores
	Ops   int    // operations per core
	Keys  int    // size of the checked-key universe
	Seed  uint64 // master seed; perturbs RNGs and start priorities
	Slack uint64 // vclock.Sim slack (scheduler perturbation)

	// Op mix in percent of ops; must sum to 100.
	GetPct, PutPct, DelPct, ScanPct int

	// Preload inserts every other universe key before recording starts
	// (seeded into the checker as initial state).
	Preload bool
}

// DefaultWorkload is the base configuration sweeps perturb.
func DefaultWorkload() Workload {
	return Workload{
		Procs: 3, Ops: 40, Keys: 8,
		GetPct: 30, PutPct: 40, DelPct: 20, ScanPct: 10,
		Preload: true,
	}
}

// String renders the workload in the parseable repro syntax.
func (w Workload) String() string {
	p := 0
	if w.Preload {
		p = 1
	}
	return fmt.Sprintf("procs=%d,ops=%d,keys=%d,seed=%d,slack=%d,mix=%d/%d/%d/%d,preload=%d",
		w.Procs, w.Ops, w.Keys, w.Seed, w.Slack, w.GetPct, w.PutPct, w.DelPct, w.ScanPct, p)
}

// ParseWorkload parses the String syntax.
func ParseWorkload(text string) (Workload, error) {
	var w Workload
	for _, field := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return w, fmt.Errorf("check: workload field %q: want key=value", field)
		}
		switch k {
		case "mix":
			if n, err := fmt.Sscanf(v, "%d/%d/%d/%d", &w.GetPct, &w.PutPct, &w.DelPct, &w.ScanPct); n != 4 || err != nil {
				return w, fmt.Errorf("check: bad mix %q", v)
			}
		default:
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return w, fmt.Errorf("check: workload field %q: %v", field, err)
			}
			switch k {
			case "procs":
				w.Procs = int(n)
			case "ops":
				w.Ops = int(n)
			case "keys":
				w.Keys = int(n)
			case "seed":
				w.Seed = n
			case "slack":
				w.Slack = n
			case "preload":
				w.Preload = n != 0
			default:
				return w, fmt.Errorf("check: unknown workload field %q", k)
			}
		}
	}
	return w, w.validate()
}

func (w Workload) validate() error {
	if w.Procs < 1 || w.Ops < 1 || w.Keys < 1 {
		return fmt.Errorf("check: workload needs procs/ops/keys >= 1, got %s", w)
	}
	if w.GetPct+w.PutPct+w.DelPct+w.ScanPct != 100 {
		return fmt.Errorf("check: workload mix must sum to 100, got %s", w)
	}
	return nil
}

// universeKey maps universe index i to its key. Keys are spaced and offset
// so ranges span leaf boundaries under small-fanout trees.
func universeKey(i int) uint64 { return uint64(i)*7 + 3 }

// RunWorkload executes one seeded workload against a fresh tree built by
// mk, with fault armed on the device, and checks the recorded history.
// It returns the history, the injector (for coverage assertions), and the
// first error: a linearizability Violation, or a panic escaping the tree
// (also a bug, surfaced rather than crashing the harness).
func RunWorkload(mk Factory, wl Workload, fault htm.FaultSpec) (History, *htm.FaultInjector, error) {
	if err := wl.validate(); err != nil {
		return History{}, nil, err
	}
	// Exploration trees are tiny (tens of keys); a small arena keeps the
	// per-run allocation cheap across hundreds of sweep runs.
	a := simmem.NewArena(1 << 16)
	h := htm.New(a, htm.DefaultConfig)
	fi := htm.NewFaultInjector(fault)
	h.SetFaultInjector(fi)
	boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
	kv := mk(h, boot)

	rec := NewRecorder(kv, Virtual)
	universe := make([]uint64, wl.Keys)
	for i := range universe {
		universe[i] = universeKey(i)
	}
	rec.SetUniverse(universe)
	if wl.Preload {
		for i := 0; i < wl.Keys; i += 2 {
			k := universe[i]
			v := k<<20 | 0xF0000
			kv.Put(boot, k, v)
			rec.SetInitial(k, v)
		}
	}

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	sim := vclock.NewSim(wl.Procs, wl.Slack)
	sim.Run(func(p *vclock.SimProc) {
		// The harness must survive a buggy tree: convert panics (corrupt
		// structure under injected faults, emulator invariant trips) into
		// reported failures so shrinking can proceed.
		defer func() {
			if r := recover(); r != nil {
				fail(fmt.Errorf("proc %d panicked: %v", p.ID(), r))
			}
		}()
		th := h.NewThread(p, wl.Seed*0x9E3779B97F4A7C15+uint64(p.ID())+1)
		r := vclock.NewRand(wl.Seed<<8 | uint64(p.ID()))
		// Priority perturbation: a seeded stagger decides which cores run
		// first and how their op streams phase against each other.
		p.Tick(uint64(r.Intn(500)))
		for i := 0; i < wl.Ops; i++ {
			k := universe[r.Intn(wl.Keys)]
			val := k<<20 | uint64(p.ID())<<16 | uint64(i)
			switch pick := r.Intn(100); {
			case pick < wl.GetPct:
				rec.Get(th, k)
			case pick < wl.GetPct+wl.PutPct:
				rec.Put(th, k, val)
			case pick < wl.GetPct+wl.PutPct+wl.DelPct:
				rec.Delete(th, k)
			default:
				rec.Scan(th, k, 3, func(_, _ uint64) bool { return true })
			}
		}
	})
	hist := rec.History()
	if firstErr != nil {
		return hist, fi, firstErr
	}
	return hist, fi, Check(hist)
}

// Failure is a reproducible checker failure found by Sweep: the (already
// shrunk) workload, the fault that was armed, and the underlying error.
type Failure struct {
	Tree     string
	Workload Workload
	Fault    htm.FaultSpec
	Err      error
}

// ReproLine is the one-command repro: run it from the repository root and
// the identical schedule replays deterministically.
func (f *Failure) ReproLine() string {
	return fmt.Sprintf("EUNO_CHECK_REPRO='tree=%s;wl=%s;fault=%s' go test ./internal/check/trees/ -run TestRepro -v",
		f.Tree, f.Workload, f.Fault)
}

func (f *Failure) Error() string {
	return fmt.Sprintf("linearizability failure on %s (workload %s, fault %s)\nrepro: %s\n%v",
		f.Tree, f.Workload, f.Fault, f.ReproLine(), f.Err)
}

// Repro names one exact exploration run: tree, workload, fault.
type Repro struct {
	Tree     string
	Workload Workload
	Fault    htm.FaultSpec
}

// String renders the EUNO_CHECK_REPRO value.
func (r Repro) String() string {
	return fmt.Sprintf("tree=%s;wl=%s;fault=%s", r.Tree, r.Workload, r.Fault)
}

// ParseRepro parses the EUNO_CHECK_REPRO syntax emitted by ReproLine.
func ParseRepro(text string) (Repro, error) {
	var out Repro
	for _, field := range strings.Split(text, ";") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return out, fmt.Errorf("check: repro field %q: want key=value", field)
		}
		var err error
		switch k {
		case "tree":
			out.Tree = v
		case "wl":
			out.Workload, err = ParseWorkload(v)
		case "fault":
			out.Fault, err = htm.ParseFaultSpec(v)
		default:
			err = fmt.Errorf("check: unknown repro field %q", k)
		}
		if err != nil {
			return out, err
		}
	}
	if out.Tree == "" {
		return out, fmt.Errorf("check: repro %q names no tree", text)
	}
	return out, nil
}

// SweepConfig shapes an exploration sweep: Seeds base workloads, each run
// once per slack and once per fault variant.
type SweepConfig struct {
	Seeds  int
	Slacks []uint64        // scheduler perturbations; default {0, 3, 17}
	Faults []htm.FaultSpec // fault variants; always includes "none"
	Base   Workload
}

// DefaultSweep returns the short-mode sweep shape.
func DefaultSweep(seeds int) SweepConfig {
	return SweepConfig{
		Seeds:  seeds,
		Slacks: []uint64{0, 3, 17},
		Faults: []htm.FaultSpec{{Point: htm.FaultStitch, Action: htm.ActYield, Nth: 3}},
		Base:   DefaultWorkload(),
	}
}

// Sweep explores schedules: for each seed, the base workload runs once per
// slack with no fault, plus once per fault variant (at the first slack).
// The first failing run is shrunk (procs, then ops, then keys) and returned
// as a *Failure; histories reports how many histories were checked.
func Sweep(treeName string, mk Factory, sc SweepConfig) (histories int, fail *Failure) {
	if sc.Base.Procs == 0 {
		sc.Base = DefaultWorkload()
	}
	if len(sc.Slacks) == 0 {
		sc.Slacks = []uint64{0}
	}
	run := func(wl Workload, fault htm.FaultSpec) *Failure {
		_, _, err := RunWorkload(mk, wl, fault)
		if err == nil {
			return nil
		}
		wl = shrink(mk, wl, fault)
		_, _, err = RunWorkload(mk, wl, fault) // re-run the shrunk case for its error
		return &Failure{Tree: treeName, Workload: wl, Fault: fault, Err: err}
	}
	for seed := 0; seed < sc.Seeds; seed++ {
		wl := sc.Base
		wl.Seed = uint64(seed)
		for _, slack := range sc.Slacks {
			wl.Slack = slack
			histories++
			if f := run(wl, htm.FaultSpec{}); f != nil {
				return histories, f
			}
		}
		wl.Slack = sc.Slacks[0]
		for _, fs := range sc.Faults {
			histories++
			if f := run(wl, fs); f != nil {
				return histories, f
			}
		}
	}
	return histories, nil
}

// shrink greedily reduces a failing workload — procs, then ops (halving,
// then stepping), then keys — keeping every reduction that still fails.
// Deterministic replay makes each probe exact, not probabilistic.
func shrink(mk Factory, wl Workload, fault htm.FaultSpec) Workload {
	fails := func(c Workload) bool {
		_, _, err := RunWorkload(mk, c, fault)
		return err != nil
	}
	for wl.Procs > 2 {
		c := wl
		c.Procs--
		if !fails(c) {
			break
		}
		wl = c
	}
	for wl.Ops > 4 {
		c := wl
		c.Ops /= 2
		if !fails(c) {
			break
		}
		wl = c
	}
	for wl.Ops > 2 {
		c := wl
		c.Ops--
		if !fails(c) {
			break
		}
		wl = c
	}
	for wl.Keys > 1 {
		c := wl
		c.Keys--
		if !fails(c) {
			break
		}
		wl = c
	}
	return wl
}
