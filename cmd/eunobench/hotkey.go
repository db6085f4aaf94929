package main

// The `hotkey` subcommand measures the CCM v2 hot-key layer (elimination +
// flat combining, Options.Combine) under the two workloads it exists for:
// a single-key hammer (every operation targets one record) and a
// celebrity-key Zipfian at the paper's extreme-skew point theta=0.99. Each
// scenario runs with combining off (the paper-faithful CCM baseline) and
// on, at the same thread counts, so the table and the BENCH_hotkey.json
// artifact directly show the on/off throughput and aborts-per-op ratios.
//
// Like the figure suite, hotkey runs on the emulated backend: contention
// is modeled per the paper's cost model on virtual cores, so the
// comparison is deterministic and works on a single-core CI runner — which
// could never produce real 16-thread cache-line contention.
// Results go to -benchjson (conventionally BENCH_hotkey.json) with the
// same label-dedup behavior as hostbench.

import (
	"fmt"

	"eunomia/internal/core"
	"eunomia/internal/harness"
	"eunomia/internal/metrics"
	"eunomia/internal/workload"
)

// hotkeyResult is one (scenario, combine, threads) cell of the artifact.
type hotkeyResult struct {
	Scenario         string  `json:"scenario"`
	Combine          bool    `json:"combine"`
	Threads          int     `json:"threads"`
	OpsPerSec        float64 `json:"ops_per_sec"` // virtual seconds, 2.3 GHz clock
	AbortsPerOp      float64 `json:"aborts_per_op"`
	WastedPct        float64 `json:"wasted_pct"`
	P50Cycles        uint64  `json:"p50_cycles"`
	P99Cycles        uint64  `json:"p99_cycles"`
	Fallbacks        uint64  `json:"fallbacks"`
	CombinedBatches  uint64  `json:"combined_batches"`
	CombinedOps      uint64  `json:"combined_ops"`
	EliminatedPairs  uint64  `json:"eliminated_pairs"`
	CombinerHandoffs uint64  `json:"combiner_handoffs"`
	// SpeedupVsOff and AbortRatioVsOff compare this combine=true cell to
	// the combine=false cell at the same (scenario, threads); zero on
	// combine=false cells. AbortRatioVsOff > 1 means fewer aborts per op
	// with combining on.
	SpeedupVsOff    float64 `json:"speedup_vs_off,omitempty"`
	AbortRatioVsOff float64 `json:"abort_ratio_vs_off,omitempty"`
}

// hotkeyRun is one labeled invocation of the sweep.
type hotkeyRun struct {
	runStamp
	Keys    uint64         `json:"keys"`
	Ops     int            `json:"ops_per_thread"`
	Results []hotkeyResult `json:"results"`
}

// hotkeyScenario is one contention shape of the sweep.
type hotkeyScenario struct {
	name string
	dist workload.Spec
	mix  workload.Mix
}

// hotkeyScenarios are the two shapes the layer targets. Both mixes carry
// deletes so the elimination path (same-key insert+delete pairs) is
// reachable, not just flat combining.
func hotkeyScenarios(keys uint64) []hotkeyScenario {
	return []hotkeyScenario{
		{
			name: "single-key hammer",
			dist: workload.Spec{Kind: workload.Uniform, N: 1},
			mix:  workload.Mix{GetPct: 20, PutPct: 40, DeletePct: 40},
		},
		{
			name: "celebrity zipf 0.99",
			dist: workload.Spec{Kind: workload.Zipfian, N: keys, Theta: 0.99},
			mix:  workload.Mix{GetPct: 50, PutPct: 30, DeletePct: 20},
		},
	}
}

// hotkeyThreads returns the virtual-core counts measured, capped by
// -threads.
func hotkeyThreads() []int {
	full := []int{4, 8, 16, 20}
	if *quick {
		full = []int{8, 16}
	}
	var out []int
	for _, n := range full {
		if n <= *threads {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{*threads}
	}
	return out
}

// hotkeyCmd runs the combine on/off comparison and prints/records it.
func hotkeyCmd() {
	art := openArtifact("HotKey",
		"CCM v2 (Options.Combine) on/off comparison on the emulated "+
			"backend under a single-key hammer and a theta=0.99 celebrity-key "+
			"Zipfian; regenerate with `make bench-hotkey` or `eunobench "+
			"-benchjson BENCH_hotkey.json -benchlabel <label> hotkey`. "+
			"Numbers are virtual-time (deterministic for a given seed and "+
			"geometry), so runs are comparable across machines.")
	run := hotkeyRun{runStamp: newStamp(*benchlabel), Keys: *keys, Ops: *ops}
	tbl := harness.Table{
		Title: "Hot-key elimination & flat combining (CCM v2): emulated backend, " +
			fmt.Sprint(*ops) + " ops/thread",
		Header: []string{"scenario", "combine", "threads", "ops/s", "vs-off",
			"aborts/op", "abort-ratio", "batches", "batch-ops", "eliminated"},
	}
	for _, sc := range hotkeyScenarios(*keys) {
		for _, n := range hotkeyThreads() {
			var off hotkeyResult
			for _, combine := range []bool{false, true} {
				cfg := core.DefaultConfig
				cfg.Combine.Enabled = combine
				res := harness.Run(harness.Config{
					Tree:         harness.EunoBTree,
					EunoCfg:      &cfg,
					Threads:      n,
					Keys:         *keys,
					PreloadPct:   100,
					Dist:         sc.dist,
					Mix:          sc.mix,
					OpsPerThread: *ops,
					Seed:         *seed,
					Resilience:   *resilience,
				})
				ls := res.Latency.Snapshot()
				hr := hotkeyResult{
					Scenario:         sc.name,
					Combine:          combine,
					Threads:          n,
					OpsPerSec:        res.Throughput,
					AbortsPerOp:      res.AbortsPerOp,
					WastedPct:        res.WastedPct,
					P50Cycles:        ls.P50,
					P99Cycles:        ls.P99,
					Fallbacks:        res.Stats.Fallbacks,
					CombinedBatches:  res.CombinedBatches,
					CombinedOps:      res.CombinedOps,
					EliminatedPairs:  res.EliminatedPairs,
					CombinerHandoffs: res.CombinerHandoffs,
				}
				vsOff, abortRatio := "-", "-"
				if combine {
					if off.OpsPerSec > 0 {
						hr.SpeedupVsOff = hr.OpsPerSec / off.OpsPerSec
						vsOff = fmt.Sprintf("%.2fx", hr.SpeedupVsOff)
					}
					if hr.AbortsPerOp > 0 {
						hr.AbortRatioVsOff = off.AbortsPerOp / hr.AbortsPerOp
						abortRatio = fmt.Sprintf("%.2fx", hr.AbortRatioVsOff)
					}
				} else {
					off = hr
				}
				run.Results = append(run.Results, hr)
				tbl.AddRow(sc.name, onOff(combine), fmt.Sprint(n),
					metrics.FormatOps(res.Throughput), vsOff,
					harness.F2(res.AbortsPerOp), abortRatio,
					fmt.Sprint(res.CombinedBatches), fmt.Sprint(res.CombinedOps),
					fmt.Sprint(res.EliminatedPairs))
			}
		}
	}
	emit(&tbl)
	art.save(run.Label, run)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
