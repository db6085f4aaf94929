package eunomia

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus host-speed micro-benchmarks of the public API.
//
// The figure benchmarks execute in deterministic virtual time and report
// the simulated metrics the paper plots (virtual Mops/s, aborts per
// operation) via b.ReportMetric; host ns/op for these mostly reflects the
// simulator, not the trees. Parameters are scaled down so the whole suite
// completes in minutes; `cmd/eunobench` runs the full-size sweeps.

import (
	"fmt"
	"testing"

	"eunomia/internal/core"
	"eunomia/internal/harness"
	"eunomia/internal/htm"
	"eunomia/internal/metrics"
	"eunomia/internal/workload"
)

const (
	benchKeys = 20_000
	benchOps  = 400
)

func benchCfg(kind Kind, threads int, theta float64) harness.Config {
	return harness.Config{
		Tree:         kind,
		Threads:      threads,
		Keys:         benchKeys,
		Dist:         workload.Spec{Kind: workload.Zipfian, Theta: theta},
		OpsPerThread: benchOps,
	}
}

// report runs one harness configuration per b.N iteration (each with a
// distinct seed) and reports the mean of the virtual-time metrics across
// all runs, so `-count` sweeps and benchstat comparisons are stable
// instead of surfacing whichever seed happened to come last.
func report(b *testing.B, cfg harness.Config) {
	b.Helper()
	var throughput, abortsPerOp, wastedPct float64
	var lat metrics.Histogram
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(42 + i)
		r := harness.Run(cfg)
		throughput += r.Throughput
		abortsPerOp += r.AbortsPerOp
		wastedPct += r.WastedPct
		lat.Merge(&r.Latency)
	}
	n := float64(b.N)
	b.ReportMetric(throughput/n/1e6, "vMops/s")
	b.ReportMetric(abortsPerOp/n, "aborts/op")
	b.ReportMetric(wastedPct/n, "wasted%")
	// Virtual per-op latency percentiles, merged across all b.N runs (the
	// histogram is bucketed, so merging commutes with observation).
	ls := lat.Snapshot()
	b.ReportMetric(float64(ls.P50), "p50-cycles")
	b.ReportMetric(float64(ls.P99), "p99-cycles")
	b.ReportMetric(float64(ls.P999), "p999-cycles")
}

// BenchmarkFig1ContentionSweep — Figure 1: the baseline HTM-B+Tree across
// contention rates.
func BenchmarkFig1ContentionSweep(b *testing.B) {
	for _, theta := range []float64{0.2, 0.5, 0.7, 0.9, 0.99} {
		b.Run(fmt.Sprintf("theta=%.2f", theta), func(b *testing.B) {
			report(b, benchCfg(HTMBTree, 16, theta))
		})
	}
}

// BenchmarkFig2AbortBreakdown — Figure 2: abort decomposition of the
// baseline (reported as per-reason aborts/op).
func BenchmarkFig2AbortBreakdown(b *testing.B) {
	for _, theta := range []float64{0.5, 0.9, 0.99} {
		b.Run(fmt.Sprintf("theta=%.2f", theta), func(b *testing.B) {
			cfg := benchCfg(HTMBTree, 16, theta)
			var breakdown [htm.NumAbortReasons]float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(42 + i)
				r := harness.Run(cfg)
				for reason, v := range r.AbortBreakdown {
					breakdown[reason] += v
				}
			}
			n := float64(b.N)
			b.ReportMetric(breakdown[htm.AbortConflictFalse]/n, "false/op")
			b.ReportMetric(breakdown[htm.AbortConflictTrue]/n, "true/op")
			b.ReportMetric(breakdown[htm.AbortConflictMeta]/n, "meta/op")
			b.ReportMetric(breakdown[htm.AbortFallbackLock]/n, "fblock/op")
		})
	}
}

// BenchmarkFig8Throughput — Figure 8: all four trees across contention.
func BenchmarkFig8Throughput(b *testing.B) {
	for _, kind := range []Kind{
		EunoBTree, HTMBTree, Masstree, HTMMasstree,
	} {
		for _, theta := range []float64{0.2, 0.9, 0.99} {
			b.Run(fmt.Sprintf("%s/theta=%.2f", kind, theta), func(b *testing.B) {
				report(b, benchCfg(kind, 16, theta))
			})
		}
	}
}

// BenchmarkFig9Aborts — Figure 9: aborts per op, Euno vs baseline.
func BenchmarkFig9Aborts(b *testing.B) {
	for _, kind := range []Kind{HTMBTree, EunoBTree} {
		for _, theta := range []float64{0.9, 0.99} {
			b.Run(fmt.Sprintf("%s/theta=%.2f", kind, theta), func(b *testing.B) {
				report(b, benchCfg(kind, 16, theta))
			})
		}
	}
}

// BenchmarkFig10Scalability — Figure 10: throughput vs thread count at four
// contention levels.
func BenchmarkFig10Scalability(b *testing.B) {
	for _, theta := range []float64{0.2, 0.6, 0.9, 0.99} {
		for _, threads := range []int{1, 4, 16} {
			for _, kind := range []Kind{EunoBTree, HTMBTree} {
				b.Run(fmt.Sprintf("theta=%.2f/%s/threads=%d", theta, kind, threads), func(b *testing.B) {
					report(b, benchCfg(kind, threads, theta))
				})
			}
		}
	}
}

// BenchmarkFig11GetPut — Figure 11: get/put ratio sweep at theta=0.9.
func BenchmarkFig11GetPut(b *testing.B) {
	for _, get := range []int{0, 20, 50, 70} {
		for _, kind := range []Kind{EunoBTree, HTMBTree} {
			b.Run(fmt.Sprintf("get=%d%%/%s", get, kind), func(b *testing.B) {
				cfg := benchCfg(kind, 16, 0.9)
				cfg.Mix = workload.Mix{GetPct: get, PutPct: 100 - get}
				report(b, cfg)
			})
		}
	}
}

// BenchmarkFig12Distributions — Figure 12: input distribution sweep.
func BenchmarkFig12Distributions(b *testing.B) {
	dists := []workload.Spec{
		{Kind: workload.Poisson, N: benchKeys},
		{Kind: workload.Normal, N: benchKeys},
		{Kind: workload.SelfSimilar, N: benchKeys},
		{Kind: workload.Zipfian, N: benchKeys, Theta: 0.9},
	}
	for _, d := range dists {
		for _, kind := range []Kind{EunoBTree, HTMBTree} {
			b.Run(fmt.Sprintf("%s/%s", d.Kind, kind), func(b *testing.B) {
				cfg := benchCfg(kind, 16, 0)
				cfg.Dist = d
				report(b, cfg)
			})
		}
	}
}

// BenchmarkFig13Ablation — Figure 13: the cumulative design-choice chain.
func BenchmarkFig13Ablation(b *testing.B) {
	for _, theta := range []float64{0.2, 0.9} {
		b.Run(fmt.Sprintf("Baseline/theta=%.2f", theta), func(b *testing.B) {
			report(b, benchCfg(HTMBTree, 16, theta))
		})
		for _, ab := range core.AblationConfigs() {
			ab := ab
			b.Run(fmt.Sprintf("%s/theta=%.2f", ab.Name, theta), func(b *testing.B) {
				cfg := benchCfg(EunoBTree, 16, theta)
				ec := ab.Cfg
				cfg.EunoCfg = &ec
				report(b, cfg)
			})
		}
	}
}

// BenchmarkMemOverhead — Section 5.7: Euno-B+Tree memory vs the baseline
// holding identical contents.
func BenchmarkMemOverhead(b *testing.B) {
	for _, theta := range []float64{0.2, 0.9} {
		b.Run(fmt.Sprintf("theta=%.2f", theta), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(EunoBTree, 8, theta)
				cfg.Seed = uint64(42 + i)
				_, _, o := harness.MemoryComparison(cfg)
				overhead += o
			}
			b.ReportMetric(overhead/float64(b.N), "overhead%")
		})
	}
}

// BenchmarkHostOps measures single-thread throughput of the public API in
// real ns/op: a handle runs outside the cost model, so ns/op is the
// protocol itself (TL2 bookkeeping + tree logic), not the emulator.
func BenchmarkHostOps(b *testing.B) {
	for _, kind := range []Kind{EunoBTree, HTMBTree, Masstree} {
		b.Run(kind.String()+"/put", func(b *testing.B) {
			db, err := Open(Options{Kind: kind, ArenaWords: 1 << 25})
			if err != nil {
				b.Fatal(err)
			}
			th := db.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Put(uint64(i%100000)+1, uint64(i))
			}
		})
		b.Run(kind.String()+"/get", func(b *testing.B) {
			db, err := Open(Options{Kind: kind, ArenaWords: 1 << 25})
			if err != nil {
				b.Fatal(err)
			}
			th := db.NewThread()
			for i := uint64(1); i <= 100000; i++ {
				th.Put(i, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Get(uint64(i%100000) + 1)
			}
		})
	}
}

// BenchmarkHostParallel drives one DB from every benchmark goroutine at
// once (one Thread each) — the scaling half of the host
// story. Run with -cpu 1,2,4,8 on a multi-core machine to see it.
func BenchmarkHostParallel(b *testing.B) {
	for _, kind := range []Kind{EunoBTree, HTMBTree, Masstree} {
		for _, mix := range []struct {
			name   string
			getPct int
		}{{"readonly", 100}, {"mixed", 50}} {
			b.Run(fmt.Sprintf("%s/%s", kind, mix.name), func(b *testing.B) {
				db, err := Open(Options{Kind: kind, ArenaWords: 1 << 25})
				if err != nil {
					b.Fatal(err)
				}
				setup := db.NewThread()
				const keys = 100_000
				for i := uint64(1); i <= keys; i++ {
					setup.Put(i, i)
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					th := db.NewThread()
					i := 0
					for pb.Next() {
						k := uint64(i%keys) + 1
						if i%100 < mix.getPct {
							th.Get(k)
						} else {
							th.Put(k, uint64(i))
						}
						i++
					}
				})
			})
		}
	}
}

// scanBenchKeys is the preload of the Scan16 benchmarks: every other key
// of [0, 2*scanBenchKeys), so leaves are part-filled the way a served
// store's are.
const scanBenchKeys = 100_000

// BenchmarkTreeScan16 is core.Tree.Scan(from, 16) on a handle's thread with
// nothing above it: one lower region that walks the leaf chain through the
// bounded merged reader, after the upper region when the leaf directory
// does not hold from's leaf. attempts/scan and loads/key name the
// transactional work (htm.Stats) behind the time; attempts/scan falls
// toward 1 as the scans fill the directory, so it depends on b.N. Run with
// -benchmem; steady state allocates nothing.
func BenchmarkTreeScan16(b *testing.B) { benchTreeScan(b, 16) }

// BenchmarkTreeScan256 is the long scan: several lower regions of
// scanLeaves leaves each.
func BenchmarkTreeScan256(b *testing.B) { benchTreeScan(b, 256) }

func benchTreeScan(b *testing.B, max int) {
	db, err := Open(Options{ArenaWords: 1 << 24})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	th := db.NewThread()
	for k := uint64(0); k < scanBenchKeys; k++ {
		th.Put(2*k, k)
	}
	visit := func(_, _ uint64) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	before, keys := th.th.Stats, 0
	for i := 0; i < b.N; i++ {
		from := uint64(i) * 2654435761 % (2 * scanBenchKeys)
		keys += db.euno.Scan(th.th, from, max, visit)
	}
	reportScanWork(b, th.th.Stats.Attempts-before.Attempts, th.th.Stats.TxLoads-before.TxLoads, keys)
}

// reportScanWork names a scan benchmark's transactional work.
func reportScanWork(b *testing.B, attempts, loads uint64, keys int) {
	b.ReportMetric(float64(attempts)/float64(b.N), "attempts/scan")
	b.ReportMetric(float64(loads)/float64(keys), "loads/key")
}

// BenchmarkSessionScan16 is Session.Scan(from, 16) on a 4-shard hash
// cluster, health on: the merge-scan the scan-mix workload
// spends its time in. refills/scan is the cursor pages read beyond each
// shard's first, the price of asking a shard for only its share.
func BenchmarkSessionScan16(b *testing.B) { benchSessionScan(b, 16) }

// BenchmarkSessionScan256 is the long merged scan.
func BenchmarkSessionScan256(b *testing.B) { benchSessionScan(b, 256) }

func benchSessionScan(b *testing.B, max int) {
	c, err := OpenCluster(ClusterOptions{Shards: 4, Shard: Options{ArenaWords: 1 << 22}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess := c.NewSession()
	for k := uint64(0); k < scanBenchKeys; k++ {
		if err := sess.Put(2*k, k); err != nil {
			b.Fatal(err)
		}
	}
	visit := func(_, _ uint64) bool { return true }
	work := func() (attempts, loads uint64) {
		for _, th := range sess.threads {
			attempts, loads = attempts+th.th.Stats.Attempts, loads+th.th.Stats.TxLoads
		}
		return attempts, loads
	}
	b.ReportAllocs()
	b.ResetTimer()
	pages, keys := sess.pages, 0
	attempts, loads := work()
	for i := 0; i < b.N; i++ {
		from := uint64(i) * 2654435761 % (2 * scanBenchKeys)
		n, err := sess.Scan(from, max, visit)
		if err != nil {
			b.Fatal(err)
		}
		keys += n
	}
	b.ReportMetric(float64(sess.pages-pages)/float64(b.N)-float64(c.Shards()), "refills/scan")
	a, l := work()
	reportScanWork(b, a-attempts, l-loads, keys)
}
