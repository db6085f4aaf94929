// Command eunobench regenerates every table and figure of the paper's
// evaluation (Section 5) on the emulated-HTM substrate. Each subcommand
// prints the rows/series of one figure; `all` runs the paper's figure
// suite. The subcommand table below is the list; `eunobench -h` prints it.
//
// Absolute numbers are not expected to match the paper (the substrate is a
// simulator, not a 20-core Haswell); the shapes — who wins, by what rough
// factor, where the collapse happens — are the reproduction target. See
// EXPERIMENTS.md for the paper-vs-measured comparison. The repository's
// regression benchmark is `make benchmark` (bench/), not this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eunomia/internal/core"
	"eunomia/internal/harness"
	"eunomia/internal/htm"
	"eunomia/internal/metrics"
	"eunomia/internal/tree/kind"
	"eunomia/internal/workload"
)

var (
	keys    = flag.Uint64("keys", 100_000, "key-space size (the paper uses 100M)")
	ops     = flag.Int("ops", 1500, "operations per thread per data point")
	threads = flag.Int("threads", 20, "maximum thread count (the paper's machine has 20 cores)")
	seed    = flag.Uint64("seed", 42, "base RNG seed")
	quick   = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	// resilience runs every harness run on a hardened device (the lemming
	// wait, htm.Config.LemmingWait). Figures measured with it on are no
	// longer the paper's fragile baseline — that is the point of the
	// comparison.
	resilience = flag.Bool("resilience", false, "wait for the fallback lock instead of retrying into it, in all runs")
)

// subcommands is the one list of what eunobench runs: dispatch, the usage
// line and `all` (the entries marked inAll, the paper's own figures) are
// all read from it.
var subcommands = []struct {
	name  string
	run   func()
	inAll bool
}{
	{"fig1", fig1, true},
	{"fig2", fig2, true},
	{"fig8", fig8, true},
	{"fig9", fig9, true},
	{"fig10", fig10, true},
	{"fig11", fig11, true},
	{"fig12", fig12, true},
	{"fig13", fig13, true},
	{"mem", mem, true},
	{"scan", scanCost, false},
	{"latency", latency, false},
	{"adjacency", adjacency, false},
	{"validate", validateCmd, false},
	{"hostbench", hostbenchCmd, false},
	{"abortmix", abortmixCmd, false},
	{"heatmap", heatmapCmd, false},
	{"swarm", func() { swarmCmd(false) }, false},
	{"swarmchaos", func() { swarmCmd(true) }, false},
	{"reshardchaos", reshardChaosCmd, false},
}

// usageLine is the first line of `eunobench -h`.
func usageLine() string {
	names := make([]string, 0, len(subcommands)+1)
	for _, sc := range subcommands {
		names = append(names, sc.name)
	}
	return "usage: eunobench [flags] <" + strings.Join(append(names, "all"), "|") + ">"
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usageLine())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := strings.ToLower(flag.Arg(0))
	stopCPU := startCPUProfile()
	defer writeMemProfile()
	defer stopCPU()
	defer flushTrace()
	ran := false
	for _, sc := range subcommands {
		if sc.name == name || name == "all" && sc.inAll {
			sc.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "eunobench: unknown figure %q\n", name)
		os.Exit(2)
	}
}

func emit(t *harness.Table) {
	if *csv {
		fmt.Printf("# %s\n", t.Title)
		if err := t.CSV(os.Stdout); err != nil {
			die(err)
		}
		fmt.Println()
		return
	}
	t.Fprint(os.Stdout)
}

func thetas() []float64 {
	if *quick {
		return []float64{0.2, 0.9, 0.99}
	}
	return []float64{0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
}

func threadSweep() []int {
	full := []int{1, 2, 4, 8, 12, 16, 20}
	if *quick {
		full = []int{1, 4, 16}
	}
	var out []int
	for _, n := range full {
		if n <= *threads {
			out = append(out, n)
		}
	}
	return out
}

func baseCfg(k kind.Kind) harness.Config {
	return harness.Config{
		Tree:         k,
		Threads:      *threads,
		Keys:         *keys,
		Dist:         workload.Spec{Kind: workload.Zipfian, Theta: 0.9},
		Mix:          workload.DefaultMix,
		OpsPerThread: *ops,
		Seed:         *seed,
		Resilience:   *resilience,
	}
}

func mops(r harness.Result) string { return metrics.FormatOps(r.Throughput) }

// fig1 — Figure 1: HTM-B+Tree throughput under different contention rates.
func fig1() {
	tbl := harness.Table{
		Title:  "Figure 1: HTM-B+Tree performance under different contention rates (" + fmt.Sprint(*threads) + " threads)",
		Header: []string{"theta", "throughput(ops/s)", "aborts/op", "wasted-cycles%"},
	}
	for _, th := range thetas() {
		cfg := baseCfg(kind.HTMBTree)
		cfg.Dist.Theta = th
		r := harness.Run(cfg)
		tbl.AddRow(fmt.Sprintf("%.2f", th), mops(r), harness.F2(r.AbortsPerOp), harness.F1(r.WastedPct))
	}
	emit(&tbl)
}

// fig2 — Figure 2: HTM aborts incurred by different reasons, per theta.
func fig2() {
	tbl := harness.Table{
		Title: "Figure 2: HTM-B+Tree aborts by reason (aborts per operation)",
		Header: []string{"theta", "total", "diff-record(false)", "shared-metadata",
			"same-record(true)", "capacity", "fallback-lock"},
	}
	for _, th := range thetas() {
		cfg := baseCfg(kind.HTMBTree)
		cfg.Dist.Theta = th
		r := harness.Run(cfg)
		tbl.AddRow(fmt.Sprintf("%.2f", th),
			harness.F2(r.AbortsPerOp),
			harness.F2(r.AbortBreakdown[htm.AbortConflictFalse]),
			harness.F2(r.AbortBreakdown[htm.AbortConflictMeta]),
			harness.F2(r.AbortBreakdown[htm.AbortConflictTrue]),
			harness.F2(r.AbortBreakdown[htm.AbortCapacity]),
			harness.F2(r.AbortBreakdown[htm.AbortFallbackLock]))
	}
	emit(&tbl)
}

var allTrees = []kind.Kind{
	kind.EunoBTree, kind.HTMBTree, kind.Masstree, kind.HTMMasstree,
}

// fig8 — Figure 8: throughput under different contention rates, all trees.
func fig8() {
	tbl := harness.Table{
		Title:  "Figure 8: throughput under different contention rates (" + fmt.Sprint(*threads) + " threads, ops/s)",
		Header: []string{"theta", "Euno-B+Tree", "HTM-B+Tree", "Masstree", "HTM-Masstree"},
	}
	for _, th := range thetas() {
		row := []string{fmt.Sprintf("%.2f", th)}
		for _, k := range allTrees {
			cfg := baseCfg(k)
			cfg.Dist.Theta = th
			row = append(row, mops(harness.Run(cfg)))
		}
		tbl.AddRow(row...)
	}
	emit(&tbl)
}

// fig9 — Figure 9: comparison of HTM aborts by reason, Euno vs baseline.
func fig9() {
	for _, k := range []kind.Kind{kind.HTMBTree, kind.EunoBTree} {
		tbl := harness.Table{
			Title: "Figure 9: " + k.String() + " aborts by reason (aborts per operation)",
			Header: []string{"theta", "total", "diff-record(false)", "shared-metadata",
				"same-record(true)", "fallback-lock"},
		}
		for _, th := range thetas() {
			cfg := baseCfg(k)
			cfg.Dist.Theta = th
			r := harness.Run(cfg)
			tbl.AddRow(fmt.Sprintf("%.2f", th),
				harness.F2(r.AbortsPerOp),
				harness.F2(r.AbortBreakdown[htm.AbortConflictFalse]),
				harness.F2(r.AbortBreakdown[htm.AbortConflictMeta]),
				harness.F2(r.AbortBreakdown[htm.AbortConflictTrue]),
				harness.F2(r.AbortBreakdown[htm.AbortFallbackLock]))
		}
		emit(&tbl)
	}
}

// scalePanel renders one thread-scalability panel.
func scalePanel(title string, mod func(*harness.Config)) {
	tbl := harness.Table{
		Title:  title,
		Header: []string{"threads", "Euno-B+Tree", "HTM-B+Tree", "Masstree", "HTM-Masstree"},
	}
	for _, n := range threadSweep() {
		row := []string{fmt.Sprint(n)}
		for _, k := range allTrees {
			cfg := baseCfg(k)
			cfg.Threads = n
			mod(&cfg)
			row = append(row, mops(harness.Run(cfg)))
		}
		tbl.AddRow(row...)
	}
	emit(&tbl)
}

// fig10 — Figure 10: scalability under four contention levels.
func fig10() {
	panels := []struct {
		label string
		theta float64
	}{
		{"(a) Low Contention, theta=0.2", 0.2},
		{"(b) Modest Contention, theta=0.6", 0.6},
		{"(c) High Contention, theta=0.9", 0.9},
		{"(d) Extremely High Contention, theta=0.99", 0.99},
	}
	for _, p := range panels {
		th := p.theta
		scalePanel("Figure 10"+p.label+" (ops/s)", func(c *harness.Config) {
			c.Dist.Theta = th
		})
	}
}

// fig11 — Figure 11: get/put ratios under high contention (theta=0.9).
func fig11() {
	ratios := []struct {
		label string
		get   int
	}{
		{"(a) 0% get / 100% put", 0},
		{"(b) 20% get / 80% put", 20},
		{"(c) 50% get / 50% put", 50},
		{"(d) 70% get / 30% put", 70},
	}
	for _, rr := range ratios {
		get := rr.get
		scalePanel("Figure 11"+rr.label+", theta=0.9 (ops/s)", func(c *harness.Config) {
			c.Dist.Theta = 0.9
			c.Mix = workload.Mix{GetPct: get, PutPct: 100 - get}
		})
	}
}

// fig12 — Figure 12: different input distributions under high contention.
func fig12() {
	dists := []struct {
		label string
		spec  workload.Spec
	}{
		{"(a) Poisson Distribution", workload.Spec{Kind: workload.Poisson}},
		{"(b) Normal Distribution", workload.Spec{Kind: workload.Normal}},
		{"(c) Self-Similar Distribution", workload.Spec{Kind: workload.SelfSimilar}},
		{"(d) Zipfian Distribution, theta=0.9", workload.Spec{Kind: workload.Zipfian, Theta: 0.9}},
	}
	for _, d := range dists {
		spec := d.spec
		scalePanel("Figure 12"+d.label+" (ops/s)", func(c *harness.Config) {
			spec.N = c.Keys
			c.Dist = spec
		})
	}
}

// fig13 — Figure 13: impact of different design choices (cumulative
// ablation), relative to the monolithic baseline.
func fig13() {
	for _, p := range []struct {
		label string
		theta float64
	}{
		{"high contention (theta=0.9)", 0.9},
		{"low contention (theta=0.2)", 0.2},
	} {
		tbl := harness.Table{
			Title:  "Figure 13: impact of design choices, " + p.label + ", " + fmt.Sprint(*threads) + " threads",
			Header: []string{"configuration", "throughput(ops/s)", "relative", "aborts/op", "fallbacks"},
		}
		base := baseCfg(kind.HTMBTree)
		base.Dist.Theta = p.theta
		rb := harness.Run(base)
		tbl.AddRow("Baseline (HTM-B+Tree)", mops(rb), "1.00x", harness.F2(rb.AbortsPerOp), fmt.Sprint(rb.Stats.Fallbacks))
		for _, ab := range core.AblationConfigs() {
			cfg := baseCfg(kind.EunoBTree)
			cfg.Dist.Theta = p.theta
			ec := ab.Cfg
			cfg.EunoCfg = &ec
			r := harness.Run(cfg)
			tbl.AddRow(ab.Name, mops(r),
				fmt.Sprintf("%.2fx", r.Throughput/rb.Throughput),
				harness.F2(r.AbortsPerOp), fmt.Sprint(r.Stats.Fallbacks))
		}
		emit(&tbl)
	}
}

// mem — Section 5.7: memory consumption analysis.
func mem() {
	row := func(tbl *harness.Table, label string, mod func(*harness.Config)) {
		cfg := baseCfg(kind.EunoBTree)
		mod(&cfg)
		euno, base, pct := harness.MemoryComparison(cfg)
		tbl.AddRow(label,
			fmt.Sprintf("%.2f MB", float64(euno)/1e6),
			fmt.Sprintf("%.2f MB", float64(base)/1e6),
			fmt.Sprintf("%.2f%%", pct))
	}
	t1 := harness.Table{
		Title:  "Section 5.7 (1): memory overhead vs contention rate (Euno vs HTM-B+Tree)",
		Header: []string{"theta", "Euno-B+Tree", "HTM-B+Tree", "overhead"},
	}
	for _, th := range thetas() {
		th := th
		row(&t1, fmt.Sprintf("%.2f", th), func(c *harness.Config) { c.Dist.Theta = th })
	}
	emit(&t1)

	t2 := harness.Table{
		Title:  "Section 5.7 (2): memory overhead vs get/put ratio (theta=0.9)",
		Header: []string{"get/put", "Euno-B+Tree", "HTM-B+Tree", "overhead"},
	}
	for _, g := range []int{20, 50, 80} {
		g := g
		row(&t2, fmt.Sprintf("%d/%d", g, 100-g), func(c *harness.Config) {
			c.Mix = workload.Mix{GetPct: g, PutPct: 100 - g}
		})
	}
	emit(&t2)

	t3 := harness.Table{
		Title:  "Section 5.7 (3): memory overhead vs input distribution",
		Header: []string{"distribution", "Euno-B+Tree", "HTM-B+Tree", "overhead"},
	}
	for _, d := range []struct {
		label string
		kind  workload.Kind
	}{{"self-similar", workload.SelfSimilar}, {"poisson", workload.Poisson}, {"uniform", workload.Uniform}} {
		d := d
		row(&t3, d.label, func(c *harness.Config) {
			c.Dist = workload.Spec{Kind: d.kind, N: c.Keys}
		})
	}
	emit(&t3)
}
