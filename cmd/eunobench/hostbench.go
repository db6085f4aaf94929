package main

// Host-speed measurement layer: the `hostbench` subcommand runs the
// emulator micro-benchmarks from internal/htm/hostbench through
// testing.Benchmark and records the results in a JSON artifact, and the
// -cpuprofile/-memprofile flags wrap any subcommand (figures included) in
// pprof capture so emulator hot spots can be inspected with
// `go tool pprof`.
//
// The JSON artifact (-benchjson, conventionally BENCH_emulator.json at the
// repo root) accumulates labeled runs: re-running with a new -benchlabel
// appends a run (replacing any previous run with the same label), so
// before/after speedups of emulator changes stay comparable across PRs.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"eunomia/internal/harness"
	"eunomia/internal/htm/hostbench"
)

var (
	cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to `file`")
)

// benchResult is one benchmark's outcome in the JSON artifact.
type benchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchRun is one labeled invocation of the suite.
type benchRun struct {
	runStamp
	Results []benchResult `json:"results"`
}

// hostbenchCmd runs the HostEmulator suite and prints/records results.
func hostbenchCmd() {
	art := openArtifact("HostEmulator",
		"Host-speed (wall clock) micro-benchmarks of the HTM emulator's "+
			"Load/Store/commit paths; regenerate with `eunobench -benchjson "+
			"BENCH_emulator.json -benchlabel <label> hostbench`. Virtual-time "+
			"figure metrics are tracked separately in EXPERIMENTS.md.")
	run := benchRun{runStamp: newStamp(*benchlabel)}
	tbl := harness.Table{
		Title:  "HostEmulator micro-benchmarks (host ns/op, not virtual time)",
		Header: []string{"case", "iters", "ns/op", "B/op", "allocs/op"},
	}
	for _, c := range hostbench.Cases() {
		r := testing.Benchmark(c.Bench)
		br := benchResult{
			Name:        c.Name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		run.Results = append(run.Results, br)
		tbl.AddRow(c.Name, fmt.Sprint(br.Iters), fmt.Sprintf("%.0f", br.NsPerOp),
			fmt.Sprint(br.BytesPerOp), fmt.Sprint(br.AllocsPerOp))
	}
	emit(&tbl)
	art.save(run.Label, run)
}

// startCPUProfile begins CPU profiling if -cpuprofile is set; the returned
// func stops it.
func startCPUProfile() func() {
	if *cpuprofile == "" {
		return func() {}
	}
	f, err := os.Create(*cpuprofile)
	if err != nil {
		die(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		die(err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile dumps a heap profile if -memprofile is set.
func writeMemProfile() {
	if *memprofile == "" {
		return
	}
	f, err := os.Create(*memprofile)
	if err != nil {
		die(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		die(err)
	}
}
