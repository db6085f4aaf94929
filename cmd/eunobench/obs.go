package main

import (
	"flag"
	"fmt"
	"os"

	"eunomia/internal/harness"
	"eunomia/internal/htm"
	"eunomia/internal/obs"
	"eunomia/internal/tree/kind"
	"eunomia/internal/vclock"
)

// This file holds the observability scenarios: the abort-attribution
// decomposition (`abortmix`), the per-leaf contention heatmap
// (`heatmap`), and the -trace flag that records any supporting scenario
// as Chrome trace-event JSON.

var (
	traceFile = flag.String("trace", "",
		"write a Chrome trace-event JSON of the scenario to FILE (abortmix, heatmap)")
	heatSample = flag.Int("heatmap-sample", 1,
		"heatmap: keep every Nth abort event (1 = all)")
	heatTop = flag.Int("heatmap-top", 12, "heatmap: hot leaves to print")
)

// tracer is the process-wide trace recorder, non-nil once -trace is set
// and a scenario asked for a lane.
var tracer *obs.TraceWriter

// traceLane returns an Observer recording into a named process lane of
// the -trace file, or nil when tracing is disabled — callers can install
// it unconditionally and keep the zero-cost nil path.
func traceLane(name string) obs.Observer {
	if *traceFile == "" {
		return nil
	}
	if tracer == nil {
		tracer = obs.NewTraceWriter(obs.TraceOptions{
			CyclesPerUsec: vclock.CyclesPerSecond / 1e6,
		})
	}
	return tracer.Process(name)
}

// flushTrace writes the accumulated trace, if any. Called once from main
// after the scenario finishes.
func flushTrace() {
	if tracer == nil {
		return
	}
	f, err := os.Create(*traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eunobench: %v\n", err)
		os.Exit(1)
	}
	if err := tracer.Encode(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "eunobench: writing trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d trace events to %s (open in chrome://tracing or ui.perfetto.dev)\n",
		tracer.Len(), *traceFile)
}

// abortmix — the paper's §3 abort decomposition, reproduced live. One
// Figure-8-style contended run per tree, with every abort attributed at
// the conflict site: layout false conflicts (the conflicting line holds
// other records' keys), shared-metadata conflicts (seqno/CCM/header
// lines), and true conflicts (the same record), plus the non-conflict
// classes. The paper reports 87–90% / 6–10% / 9–12% across workloads for
// the baseline; Eunomia's design removes most of the false-conflict mass,
// which the second row shows.
func abortmixCmd() {
	tbl := harness.Table{
		Title: fmt.Sprintf("Abort attribution (theta=0.9, %d threads; conflict shares vs paper §3: false 87-90%%, meta 6-10%%, true 9-12%%)",
			*threads),
		Header: []string{"tree", "aborts/op", "layout-false", "metadata", "true",
			"capacity", "fallback-lock", "explicit"},
	}
	for _, k := range []kind.Kind{kind.HTMBTree, kind.EunoBTree} {
		cfg := baseCfg(k)
		cfg.Dist.Theta = 0.9
		cfg.Observer = traceLane("abortmix " + k.String())
		r := harness.Run(cfg)
		a := r.Stats.Aborts
		conflicts := a[htm.AbortConflictFalse] + a[htm.AbortConflictMeta] + a[htm.AbortConflictTrue]
		share := func(n uint64) string {
			if conflicts == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(conflicts))
		}
		tbl.AddRow(k.String(),
			harness.F2(r.AbortsPerOp),
			share(a[htm.AbortConflictFalse]),
			share(a[htm.AbortConflictMeta]),
			share(a[htm.AbortConflictTrue]),
			fmt.Sprint(a[htm.AbortCapacity]),
			fmt.Sprint(a[htm.AbortFallbackLock]),
			fmt.Sprint(a[htm.AbortExplicit]))
	}
	emit(&tbl)
}

// heatmapCmd — per-leaf contention heatmap: a contended Euno-B+Tree run
// with the built-in sampled heatmap attached, printing where the abort
// pressure concentrates. Euno annotates abort events with the connection
// leaf, so hot entries name tree leaves; the trailing rows falling back to
// raw cache lines are upper-region (index/metadata) conflicts.
func heatmapCmd() {
	heat := obs.NewHeatmap(obs.HeatmapConfig{SampleEvery: *heatSample})
	cfg := baseCfg(kind.EunoBTree)
	cfg.Dist.Theta = 0.99
	cfg.Observer = obs.Multi(heat, traceLane("heatmap euno-btree"))
	r := harness.Run(cfg)

	seen, sampled := heat.Seen()
	tbl := harness.Table{
		Title: fmt.Sprintf("Per-leaf contention heatmap (Euno-B+Tree, theta=0.99, %d threads; %d aborts seen, %d sampled)",
			*threads, seen, sampled),
		Header: []string{"#", "site", "tag", "aborts", "layout-false", "metadata", "true", "other", "active-cycles"},
	}
	hot := heat.Hot()
	if len(hot) > *heatTop {
		hot = hot[:*heatTop]
	}
	for i, l := range hot {
		site := fmt.Sprintf("line %#x", l.ID)
		if l.Annotated {
			site = fmt.Sprintf("leaf %#x", l.ID)
		}
		false_ := l.ByReason[htm.AbortConflictFalse]
		meta := l.ByReason[htm.AbortConflictMeta]
		true_ := l.ByReason[htm.AbortConflictTrue]
		tbl.AddRow(fmt.Sprint(i+1), site, obs.Event{Tag: l.Tag}.TagName(),
			fmt.Sprint(l.Total),
			fmt.Sprint(false_), fmt.Sprint(meta), fmt.Sprint(true_),
			fmt.Sprint(l.Total-false_-meta-true_),
			fmt.Sprint(l.LastTS-l.FirstTS))
	}
	emit(&tbl)
	fmt.Printf("run: %d ops, %.2f aborts/op, %.1f%% wasted cycles\n",
		r.Ops, r.AbortsPerOp, r.WastedPct)
}
