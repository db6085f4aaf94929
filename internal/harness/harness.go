// Package harness drives the paper's experiments: it builds an arena, an
// HTM device and one of the four trees (through kind.New, the constructor
// eunomia.Open shares), preloads the key space, runs a YCSB-style
// operation mix on N virtual cores in deterministic virtual time, and
// reports throughput, the abort breakdown, wasted cycles, and memory
// footprints — the quantities behind every figure in Section 5.
package harness

import (
	"fmt"

	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/metrics"
	"eunomia/internal/obs"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/tree/kind"
	"eunomia/internal/vclock"
	"eunomia/internal/workload"
)

// Config describes one experiment run.
type Config struct {
	Tree kind.Kind
	// EunoCfg overrides the Euno-B+Tree configuration (ablations); the
	// zero value means core.DefaultConfig.
	EunoCfg *core.Config

	Threads      int
	Keys         uint64 // key-space size (the paper uses 100M; defaults are smaller)
	PreloadPct   int    // percentage of the key space inserted before measuring
	Dist         workload.Spec
	Mix          workload.Mix
	OpsPerThread int
	Seed         uint64
	ArenaWords   uint64 // arena capacity

	// Resilience sets htm.Config.LemmingWait on the run's device (wait for
	// the fallback lock instead of retrying into it). Default false keeps
	// the paper-faithful fragile behavior every figure measures.
	Resilience bool

	// Observer, when non-nil, is installed on the HTM device and receives
	// every observability event (tx begin/commit/abort, stitch, fallback);
	// see internal/obs. Callbacks never advance the virtual clock, so an
	// attached observer cannot move a run's metrics by a cycle.
	Observer obs.Observer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.Keys == 0 {
		c.Keys = 100_000
	}
	if c.PreloadPct == 0 {
		c.PreloadPct = 50
	}
	if c.Dist.N == 0 {
		c.Dist.N = c.Keys
	}
	if c.Mix == (workload.Mix{}) {
		c.Mix = workload.DefaultMix
	}
	if c.OpsPerThread == 0 {
		c.OpsPerThread = 5_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.ArenaWords == 0 {
		// Size to the data: ~16 words per record headroom, min 4M words.
		c.ArenaWords = c.Keys * 24
		if c.ArenaWords < 1<<22 {
			c.ArenaWords = 1 << 22
		}
	}
	return c
}

// Result summarizes one run.
type Result struct {
	Config Config

	Ops        uint64
	Cycles     uint64  // virtual makespan of the measured phase
	Seconds    float64 // Cycles at the paper's 2.3 GHz clock
	Throughput float64 // ops per (virtual) second

	Stats       htm.Stats // merged across threads
	AbortsPerOp float64
	// AbortBreakdown is aborts-per-operation by reason, the Figure 2/9
	// decomposition.
	AbortBreakdown [htm.NumAbortReasons]float64
	WastedPct      float64 // % of consumed cycles spent in aborted attempts

	Latency metrics.Histogram // per-op latency in cycles

	LiveBytes     int64 // tree footprint after the run
	PreloadedKeys uint64
}

// Run executes one experiment and returns its result. Runs are
// deterministic for a fixed Config.
func Run(cfg Config) Result {
	res, _, _ := run(cfg)
	return res
}

// run is the one virtual-time runner: it also hands back the tree and the
// boot thread that built it, for callers that inspect the end state.
func run(cfg Config) (Result, tree.KV, *htm.Thread) {
	cfg = cfg.withDefaults()
	if err := cfg.Mix.Validate(); err != nil {
		panic(err)
	}
	arena := simmem.NewArena(cfg.ArenaWords)
	hcfg := htm.DefaultConfig
	hcfg.Observer = cfg.Observer
	hcfg.LemmingWait = cfg.Resilience
	device := htm.New(arena, hcfg)
	boot := device.NewThread(vclock.NewWallProc(0, 0), cfg.Seed)
	euno := core.DefaultConfig
	if cfg.EunoCfg != nil {
		euno = *cfg.EunoCfg
	}
	kv := kind.New(cfg.Tree, device, boot, euno)

	// Load phase (not measured): insert the preload subset.
	var preloaded uint64
	workload.ForEachPreload(cfg.Keys, cfg.PreloadPct, func(key uint64) {
		kv.Put(boot, key, key*31+7)
		preloaded++
	})

	// Measured phase: virtual-time lockstep across cfg.Threads cores.
	sim := vclock.NewSim(cfg.Threads, 0)
	stats := make([]htm.Stats, cfg.Threads)
	hists := make([]metrics.Histogram, cfg.Threads)
	opsDone := make([]uint64, cfg.Threads)
	var totalThreadCycles uint64
	sim.Run(func(p *vclock.SimProc) {
		th := device.NewThread(p, cfg.Seed+uint64(p.ID())*7919+1)
		stream := workload.NewStream(cfg.Dist, cfg.Mix)
		for i := 0; i < cfg.OpsPerThread; i++ {
			opsDone[p.ID()]++
			op := stream.Next(th.Rand)
			start := p.Now()
			switch op.Kind {
			case workload.OpGet:
				kv.Get(th, op.Key)
			case workload.OpPut:
				kv.Put(th, op.Key, op.Key<<8|uint64(i)&0xff)
			case workload.OpDelete:
				kv.Delete(th, op.Key)
			case workload.OpScan:
				kv.Scan(th, op.Key, op.ScanLen, func(k, v uint64) bool { return true })
			}
			hists[p.ID()].Observe(p.Now() - start)
		}
		stats[p.ID()] = th.Stats
	})
	for _, p := range sim.Procs() {
		totalThreadCycles += p.Now()
	}

	var totalOps uint64
	for _, n := range opsDone {
		totalOps += n
	}
	res := Result{
		Config:        cfg,
		Ops:           totalOps,
		Cycles:        sim.MaxClock(),
		LiveBytes:     arena.LiveBytes(),
		PreloadedKeys: preloaded,
	}
	res.Seconds = float64(res.Cycles) / vclock.CyclesPerSecond
	if res.Seconds > 0 {
		res.Throughput = float64(res.Ops) / res.Seconds
	}
	for i := range stats {
		res.Stats.Merge(&stats[i])
		res.Latency.Merge(&hists[i])
	}
	if res.Ops > 0 {
		res.AbortsPerOp = float64(res.Stats.TotalAborts()) / float64(res.Ops)
		for r := htm.AbortReason(1); r < htm.NumAbortReasons; r++ {
			res.AbortBreakdown[r] = float64(res.Stats.Aborts[r]) / float64(res.Ops)
		}
	}
	if totalThreadCycles > 0 {
		res.WastedPct = 100 * float64(res.Stats.WastedCycles) / float64(totalThreadCycles)
	}
	return res, kv, boot
}

// MemoryComparison runs the same load on a tree kind and on the baseline
// HTM-B+Tree and reports the Section 5.7 overhead percentage
// (tree bytes vs. baseline bytes for identical contents).
func MemoryComparison(cfg Config) (treeBytes, baseBytes int64, overheadPct float64) {
	r1 := Run(cfg)
	base := cfg
	base.Tree = kind.HTMBTree
	r2 := Run(base)
	treeBytes, baseBytes = r1.LiveBytes, r2.LiveBytes
	if baseBytes > 0 {
		overheadPct = 100 * (float64(treeBytes) - float64(baseBytes)) / float64(baseBytes)
	}
	return treeBytes, baseBytes, overheadPct
}

// ValidateTree runs the tree's quiescent structural validator, if it has
// one (all three B+Tree implementations do).
func ValidateTree(kv tree.KV, p vclock.Proc) error {
	type validator interface {
		Validate(p vclock.Proc) error
	}
	if v, ok := kv.(validator); ok {
		return v.Validate(p)
	}
	return fmt.Errorf("harness: %s has no validator", kv.Name())
}

// RunAndValidate performs a Run and then validates the structure the run
// left behind.
func RunAndValidate(cfg Config) (Result, error) {
	res, kv, boot := run(cfg)
	return res, ValidateTree(kv, boot.P)
}
