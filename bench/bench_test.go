package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// BENCHMARK.json and metrics.go must declare the same metrics, in the same
// order, and the same workloads.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(what string, got []declared, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d, metrics.go %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, metrics.go %v", what, i, got[i], m)
			}
			if !name.MatchString(m.name) {
				t.Errorf("%s[%d]: name %q is outside [A-Za-z0-9_.-]", what, i, m.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, workloads.go %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q", i, spec.Workloads[i].Name, wl.name)
		}
	}
}

// Every workload, in the quick shape and single-threaded, reports every
// declared metric and nothing else, every end-to-end metric above zero, no
// failed op, and writes its trace.
func TestEveryWorkloadQuick(t *testing.T) {
	known := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		known[m.name] = true
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			c := quickConfig(t)
			c.trace = -1
			res := runQuick(t, wl.name, c)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d ops failed", res.failed, res.attempted)
			}
			for _, m := range endToEnd {
				if res.e2e[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.name, res.e2e[m.name])
				}
			}
			for _, reported := range []map[string]float64{res.e2e, res.layer} {
				for name := range reported {
					if !known[name] {
						t.Errorf("reports undeclared metric %q", name)
					}
				}
			}
			if wl.sim {
				return
			}
			for _, name := range []string{"bench.loadgen_ns_per_op", "bench.trace_overhead_pct", "htm." + kindNames[firstKind(wl.traffic)] + "_ns"} {
				if res.layer[name] == 0 {
					t.Errorf("ladder metric %s is 0", name)
				}
			}
			if _, err := os.Stat(c.outDir + "/trace-" + wl.name + ".json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// The traced run's many-thread phase gives every worker a block of its own,
// so it fails no op either, and reports its throughput.
func TestManyThreadPhase(t *testing.T) {
	for _, name := range []string{"point-skewed", "durable-write"} {
		c := quickConfig(t)
		c.trace, c.threads = 1, 2
		res := runQuick(t, name, c)
		if res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", name, res.failed, res.attempted)
		}
		if res.layer["handle.mt_throughput_ops_s"] <= 0 || res.layer["handle.mt_speedup"] <= 0 {
			t.Errorf("%s: many-thread phase reported %v ops/s, speed-up %v", name,
				res.layer["handle.mt_throughput_ops_s"], res.layer["handle.mt_speedup"])
		}
	}
}

// Virtual time is deterministic: the same seed gives the same simulated
// throughput, to the last digit.
func TestSimContendedRepeatsExactly(t *testing.T) {
	a := runQuick(t, "sim-contended", quickConfig(t)).e2e["throughput_ops_s"]
	b := runQuick(t, "sim-contended", quickConfig(t)).e2e["throughput_ops_s"]
	if a != b || a == 0 {
		t.Fatalf("two runs with one seed simulated %v and %v ops/s", a, b)
	}
}
