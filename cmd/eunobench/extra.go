package main

import (
	"fmt"

	"eunomia/internal/harness"
	"eunomia/internal/metrics"
	"eunomia/internal/tree/kind"
	"eunomia/internal/workload"
)

// Extension experiments beyond the paper's figures. Registered in main.go:
//
//	scan    — quantifies Section 4.1's stated trade-off ("such a design
//	          sacrifices the performance of scan operations"): range-query
//	          throughput across scan lengths, Euno vs baseline vs Masstree.
//	latency — per-operation latency percentiles under low and high
//	          contention (the paper reports only throughput; tail latency
//	          is where fallback convoys hurt most).

// scanCost measures mixed point/scan workloads across scan lengths.
func scanCost() {
	tbl := harness.Table{
		Title:  "Extension: range-query cost (10% scans of length L, theta=0.6, ops/s)",
		Header: []string{"scan-len", "Euno-B+Tree", "HTM-B+Tree", "Masstree"},
	}
	for _, l := range []int{4, 16, 64, 256} {
		row := []string{fmt.Sprint(l)}
		for _, k := range []kind.Kind{kind.EunoBTree, kind.HTMBTree, kind.Masstree} {
			cfg := baseCfg(k)
			cfg.Dist.Theta = 0.6
			cfg.Mix = workload.Mix{GetPct: 45, PutPct: 45, ScanPct: 10, ScanLen: l}
			row = append(row, mops(harness.Run(cfg)))
		}
		tbl.AddRow(row...)
	}
	emit(&tbl)
}

// latency reports per-op latency percentiles (virtual cycles).
func latency() {
	for _, p := range []struct {
		label string
		theta float64
	}{{"low contention (theta=0.2)", 0.2}, {"high contention (theta=0.9)", 0.9}} {
		tbl := harness.Table{
			Title:  "Extension: operation latency in cycles, " + p.label,
			Header: []string{"tree", "mean", "p50", "p99", "max", "throughput"},
		}
		for _, k := range allTrees {
			cfg := baseCfg(k)
			cfg.Dist.Theta = p.theta
			r := harness.Run(cfg)
			tbl.AddRow(k.String(),
				fmt.Sprintf("%.0f", r.Latency.Mean()),
				fmt.Sprint(r.Latency.Quantile(0.5)),
				fmt.Sprint(r.Latency.Quantile(0.99)),
				fmt.Sprint(r.Latency.Max()),
				metrics.FormatOps(r.Throughput))
		}
		emit(&tbl)
	}
}

// adjacency separates the paper's two contention ingredients: skew (how
// concentrated the popularity distribution is) and adjacency (whether the
// hot keys are neighbors sharing cache lines). Plain Zipfian has both;
// scrambled Zipfian keeps the skew but scatters the hot keys. The
// baseline's consecutive layout should suffer far more under the plain
// variant — direct evidence for the paper's "cache line sharing of
// consecutive records" mechanism.
func adjacency() {
	tbl := harness.Table{
		Title:  "Extension: skew vs adjacency (theta=0.9, " + fmt.Sprint(*threads) + " threads, ops/s)",
		Header: []string{"tree", "plain zipfian", "aborts/op", "scrambled zipfian", "aborts/op"},
	}
	for _, k := range []kind.Kind{kind.HTMBTree, kind.EunoBTree} {
		plain := baseCfg(k)
		plain.Dist = workload.Spec{Kind: workload.Zipfian, Theta: 0.9}
		rp := harness.Run(plain)
		scr := baseCfg(k)
		scr.Dist = workload.Spec{Kind: workload.ScrambledZipfian, Theta: 0.9}
		rs := harness.Run(scr)
		tbl.AddRow(k.String(), mops(rp), harness.F2(rp.AbortsPerOp), mops(rs), harness.F2(rs.AbortsPerOp))
	}
	emit(&tbl)
}

// validateCmd runs a mixed workload on each tree and checks the final
// structure with the quiescent validators — a self-test for users who
// change tree internals.
func validateCmd() {
	tbl := harness.Table{
		Title:  "Structural validation after a mixed workload (theta=0.9, deletes included)",
		Header: []string{"tree", "ops", "result"},
	}
	for _, k := range []kind.Kind{kind.EunoBTree, kind.HTMBTree, kind.Masstree, kind.HTMMasstree} {
		cfg := baseCfg(k)
		cfg.Mix = workload.Mix{GetPct: 30, PutPct: 50, DeletePct: 15, ScanPct: 5, ScanLen: 10}
		res, err := harness.RunAndValidate(cfg)
		verdict := "OK"
		if err != nil {
			verdict = err.Error()
		}
		tbl.AddRow(k.String(), fmt.Sprint(res.Ops), verdict)
	}
	emit(&tbl)
}
