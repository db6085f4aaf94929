// Command bench is the repository's one repeatable benchmark: five named
// workloads, end-to-end metrics with regression bounds, and a traced
// layer-tax ladder. See README.md; BENCHMARK.json at the repository root
// declares the command, the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	c := &config{}
	name := flag.String("workload", "", "run one workload (default: all five, in order)")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured wall seconds per workload (20 windows)")
	flag.IntVar(&c.trace, "trace", -1, "0: end-to-end metrics, 1: per-layer metrics with the ladder, -1: both")
	flag.BoolVar(&c.quick, "quick", false, "small shape for smoke tests: 10k keys, 5 x 0.2 s")
	flag.StringVar(&c.outDir, "out", "out", "directory for trace-<workload>.json")
	flag.Parse()
	if c.quick {
		c.seconds = 1
	}
	c.threads = min(runtime.NumCPU(), 4)

	run := workloads
	if *name != "" {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		run = []workload{*wl}
	}
	for i := range run {
		wl := &run[i]
		res, err := runWorkload(wl, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		report(wl, c, res)
	}
}

func runWorkload(wl *workload, c *config) (*result, error) {
	if c.quick && wl.arenaPerKey == 0 {
		// The library's default arena is 128 MiB a store, and the quick
		// shape would spend its time zeroing them.
		small := *wl
		small.arenaPerKey = 64
		wl = &small
	}
	if wl.sim {
		return runSim(wl, c)
	}
	return runWall(wl, c)
}

// reported returns the metrics a run prints: with -trace 0 every
// end-to-end metric, with -trace 1 every per-layer metric.
func reported(c *config, res *result) (names []metric, values map[string]float64) {
	values = map[string]float64{}
	if c.trace != 1 {
		names = append(names, endToEnd...)
		for k, v := range res.e2e {
			values[k] = v
		}
	}
	if c.trace != 0 {
		names = append(names, perLayer...)
		for k, v := range res.layer {
			values[k] = v
		}
	}
	return names, values
}

// report prints every metric by name with its unit, then — as the last
// line — the machine-readable result.
func report(wl *workload, c *config, res *result) {
	fmt.Printf("workload %s seed=%d seconds=%g clients=1 mt_threads=%d nproc=%d gomaxprocs=%d %s\n",
		wl.name, c.seed, c.seconds, c.threads, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("  attempted=%d failed=%d failed_ops_ratio=%g\n",
		res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names, values := reported(c, res)
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range names {
		fmt.Printf("  %-34s %16.6g %s\n", m.name, values[m.name], m.unit)
		out.Metrics[m.name] = value{values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
