package harness

import (
	"strings"
	"testing"

	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/obs"
	"eunomia/internal/tree/kind"
	"eunomia/internal/workload"
)

func smallCfg(k kind.Kind) Config {
	return Config{
		Tree:         k,
		Threads:      4,
		Keys:         2000,
		Dist:         workload.Spec{Kind: workload.Zipfian, Theta: 0.9},
		OpsPerThread: 400,
	}
}

// hammerCfg is the single-key hammer: every thread's every op lands on one
// record of a fully preloaded default tree, 20 % get / 40 % put / 40 %
// delete — the most contended input the harness can be given, and one no
// figure runs.
func hammerCfg() Config {
	c := smallCfg(kind.EunoBTree)
	c.Threads = 8
	c.PreloadPct = 100
	c.Dist = workload.Spec{Kind: workload.Uniform, N: 1}
	c.Mix = workload.Mix{GetPct: 20, PutPct: 40, DeletePct: 40}
	return c
}

func TestRunAllTreeKinds(t *testing.T) {
	for _, k := range []kind.Kind{kind.EunoBTree, kind.HTMBTree, kind.Masstree, kind.HTMMasstree} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			res := Run(smallCfg(k))
			if res.Ops != 1600 {
				t.Fatalf("ops = %d", res.Ops)
			}
			if res.Cycles == 0 || res.Throughput <= 0 {
				t.Fatalf("no progress: cycles=%d tput=%v", res.Cycles, res.Throughput)
			}
			if res.PreloadedKeys == 0 {
				t.Fatal("nothing preloaded")
			}
			if res.Latency.Count() != res.Ops {
				t.Fatalf("latency count %d != ops %d", res.Latency.Count(), res.Ops)
			}
			if k == kind.Masstree && res.Stats.Attempts != 0 {
				t.Fatal("masstree used transactions")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	hardened := smallCfg(kind.HTMBTree)
	hardened.Resilience = true
	for name, cfg := range map[string]Config{"zipf": smallCfg(kind.EunoBTree), "hammer": hammerCfg(), "hardened": hardened} {
		a := Run(cfg)
		b := Run(cfg)
		if a.Cycles != b.Cycles || a.Stats != b.Stats {
			t.Fatalf("%s: nondeterministic harness: %d vs %d cycles", name, a.Cycles, b.Cycles)
		}
	}
}

func TestContentionIncreasesAborts(t *testing.T) {
	low := smallCfg(kind.HTMBTree)
	low.Dist.Theta = 0.1
	low.OpsPerThread = 800
	high := smallCfg(kind.HTMBTree)
	high.Dist.Theta = 0.99
	high.OpsPerThread = 800
	rl, rh := Run(low), Run(high)
	if rh.AbortsPerOp <= rl.AbortsPerOp {
		t.Fatalf("aborts/op low=%.3f high=%.3f; contention had no effect",
			rl.AbortsPerOp, rh.AbortsPerOp)
	}
}

func TestEunoBeatsBaselineUnderHighContention(t *testing.T) {
	// The paper's headline: under heavy skew Euno-B+Tree outperforms the
	// monolithic HTM-B+Tree. Modest sizes keep this test quick; the full
	// sweep lives in cmd/eunobench.
	mk := func(k kind.Kind) Config {
		// The collapse regime needs paper-scale parameters: enough threads
		// and enough keys that the hot leaves convoy the fallback lock.
		c := smallCfg(k)
		c.Threads = 20
		c.Keys = 100_000
		c.Dist.Theta = 0.99
		c.OpsPerThread = 1000
		return c
	}
	re := Run(mk(kind.EunoBTree))
	rb := Run(mk(kind.HTMBTree))
	if re.Throughput <= rb.Throughput {
		t.Fatalf("Euno %.0f ops/s <= baseline %.0f ops/s under high contention",
			re.Throughput, rb.Throughput)
	}
	t.Logf("speedup at theta=0.99: %.2fx (euno %.2fM vs base %.2fM ops/s)",
		re.Throughput/rb.Throughput, re.Throughput/1e6, rb.Throughput/1e6)
}

// TestLemmingWaitRemovesConvoy pins what Config.Resilience is for, at the
// quick figure scale (20 virtual cores, 100k keys): waiting for the fallback
// lock instead of retrying into it takes the monolithic HTM trees out of
// their collapse, and costs nothing where nothing falls back.
func TestLemmingWaitRemovesConvoy(t *testing.T) {
	pair := func(k kind.Kind, theta float64) (fragile, hardened Result) {
		c := smallCfg(k)
		c.Threads = 20
		c.Keys = 100_000
		c.Dist.Theta = theta
		c.OpsPerThread = 300
		fragile = Run(c)
		c.Resilience = true
		return fragile, Run(c)
	}

	f, h := pair(kind.HTMBTree, 0.9)
	if h.Throughput < 3*f.Throughput {
		t.Errorf("HTM-B+Tree theta=0.9: hardened %.2fM ops/s is not 3x the default %.2fM",
			h.Throughput/1e6, f.Throughput/1e6)
	}
	if fl, hl := f.AbortBreakdown[htm.AbortFallbackLock], h.AbortBreakdown[htm.AbortFallbackLock]; hl*10 > fl {
		t.Errorf("HTM-B+Tree theta=0.9: fallback-lock aborts/op %.3f -> %.3f, want a 10x drop", fl, hl)
	}

	// The cell the five-defence bundle lost to the default it hardened.
	f, h = pair(kind.HTMMasstree, 0.99)
	if h.Throughput <= f.Throughput {
		t.Errorf("HTM-kind.Masstree theta=0.99: hardened %.2fM ops/s <= default %.2fM",
			h.Throughput/1e6, f.Throughput/1e6)
	}

	f, h = pair(kind.HTMBTree, 0.2)
	if f.Stats.Aborts[htm.AbortFallbackLock] != 0 {
		t.Fatalf("theta=0.2 run saw %d fallback-lock aborts; it no longer shows that an idle wait is free",
			f.Stats.Aborts[htm.AbortFallbackLock])
	}
	if f.Cycles != h.Cycles || f.Stats != h.Stats {
		t.Errorf("theta=0.2: the policy moved a run with no fallback-lock abort: %d vs %d cycles", f.Cycles, h.Cycles)
	}
}

func TestEunoAblationConfigsRun(t *testing.T) {
	for _, ab := range core.AblationConfigs() {
		cfg := smallCfg(kind.EunoBTree)
		ec := ab.Cfg
		cfg.EunoCfg = &ec
		res := Run(cfg)
		if res.Throughput <= 0 {
			t.Fatalf("%s made no progress", ab.Name)
		}
	}
}

func TestMixWithScansAndDeletes(t *testing.T) {
	cfg := smallCfg(kind.EunoBTree)
	cfg.Mix = workload.Mix{GetPct: 40, PutPct: 40, DeletePct: 10, ScanPct: 10, ScanLen: 10}
	res := Run(cfg)
	if res.Throughput <= 0 {
		t.Fatal("no progress with mixed ops")
	}
}

func TestMemoryComparison(t *testing.T) {
	cfg := smallCfg(kind.EunoBTree)
	cfg.Mix = workload.Mix{GetPct: 50, PutPct: 50}
	treeB, baseB, pct := MemoryComparison(cfg)
	if treeB <= 0 || baseB <= 0 {
		t.Fatalf("bytes: %d vs %d", treeB, baseB)
	}
	t.Logf("euno=%dB base=%dB overhead=%.1f%%", treeB, baseB, pct)
	if pct < -50 || pct > 300 {
		t.Fatalf("implausible overhead %.1f%%", pct)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := Table{Title: "Fig X", Header: []string{"theta", "ops/s"}}
	tbl.AddRow("0.5", "123")
	tbl.AddRow("0.99", "45")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Fig X", "theta", "0.99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "theta,ops/s\n0.5,123\n") {
		t.Fatalf("csv:\n%s", csv.String())
	}
	bad := Table{Header: []string{"a,b"}}
	if err := bad.CSV(&csv); err == nil {
		t.Fatal("comma cell accepted")
	}
}

func TestTreeKindStrings(t *testing.T) {
	for _, k := range []kind.Kind{kind.EunoBTree, kind.HTMBTree, kind.Masstree, kind.HTMMasstree} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestRunAndValidate(t *testing.T) {
	cfgs := []Config{hammerCfg()}
	for _, k := range []kind.Kind{kind.EunoBTree, kind.HTMBTree, kind.Masstree} {
		cfg := smallCfg(k)
		cfg.Mix = workload.Mix{GetPct: 40, PutPct: 40, DeletePct: 20}
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		res, err := RunAndValidate(cfg)
		if err != nil {
			t.Fatalf("%v %+v: %v", cfg.Tree, cfg.Dist, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%v %+v: no ops", cfg.Tree, cfg.Dist)
		}
	}
}

// TestObserverDoesNotPerturbRun: attaching an observer must leave every
// virtual-time metric bit-identical — observer callbacks never tick the
// virtual clock. This is the enabled-path half of the zero-cost
// guarantee; the disabled path is pinned by the golden fig1/fig8 CSVs.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	for _, k := range []kind.Kind{kind.EunoBTree, kind.HTMBTree} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			plain := Run(smallCfg(k))
			heat := obs.NewHeatmap(obs.HeatmapConfig{})
			cfg := smallCfg(k)
			cfg.Observer = heat
			observed := Run(cfg)
			if plain.Cycles != observed.Cycles || plain.Ops != observed.Ops {
				t.Fatalf("observer moved the run: %d/%d cycles, %d/%d ops",
					plain.Cycles, observed.Cycles, plain.Ops, observed.Ops)
			}
			if plain.Stats != observed.Stats {
				t.Fatalf("observer changed stats:\nplain:    %+v\nobserved: %+v",
					plain.Stats, observed.Stats)
			}
			seen, _ := heat.Seen()
			if seen != observed.Stats.TotalAborts() {
				t.Fatalf("heatmap saw %d aborts, run counted %d", seen, observed.Stats.TotalAborts())
			}
		})
	}
}

// TestAbortDecompositionShape pins the paper's Section 3 abort analysis
// on the baseline HTM-B+Tree under the contended Figure-8-style workload:
// layout false conflicts (different records, same line) must dominate the
// conflict mass, with shared-metadata and true conflicts as minority
// classes — the observation Eunomia's whole design answers. Figure 9 is
// about aborts per operation, so that is what the Euno-B+Tree must cut: on
// the same workload it takes at most half the baseline's false conflicts
// per op (its partitioned leaves put each core's keys on distinct lines).
// Its false *share* is no test: what else it removes, such as the upper
// region's metadata conflicts, raises the share while the rate holds.
func TestAbortDecompositionShape(t *testing.T) {
	decompose := func(k kind.Kind, seed uint64) (falsePerOp, falseShare, metaShare, trueShare float64) {
		cfg := smallCfg(k)
		cfg.Threads = 8
		cfg.OpsPerThread = 1200
		cfg.Seed = seed
		r := Run(cfg)
		a := r.Stats.Aborts
		conflicts := float64(a[htm.AbortConflictFalse] + a[htm.AbortConflictMeta] + a[htm.AbortConflictTrue])
		if conflicts == 0 {
			t.Fatalf("%v seed %d: no conflict aborts under theta=0.9", k, seed)
		}
		return r.AbortBreakdown[htm.AbortConflictFalse],
			float64(a[htm.AbortConflictFalse]) / conflicts,
			float64(a[htm.AbortConflictMeta]) / conflicts,
			float64(a[htm.AbortConflictTrue]) / conflicts
	}
	for _, seed := range []uint64{1, 2, 3, 42} {
		bf, f, m, tr := decompose(kind.HTMBTree, seed)
		if f < 0.5 {
			t.Fatalf("seed %d: baseline layout-false share = %.2f, want dominant (paper: 0.87-0.90)", seed, f)
		}
		if m > f || tr > f {
			t.Fatalf("seed %d: baseline minority classes out of shape: false=%.2f meta=%.2f true=%.2f", seed, f, m, tr)
		}
		ef, _, _, _ := decompose(kind.EunoBTree, seed)
		if ef > bf/2 {
			t.Fatalf("seed %d: Euno takes %.3f false conflicts per op, the baseline %.3f; want at most half", seed, ef, bf)
		}
		t.Logf("seed %d: false conflicts per op: Euno %.3f, baseline %.3f", seed, ef, bf)
	}
}
