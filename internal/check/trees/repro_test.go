package checktrees

import (
	"os"
	"testing"

	"eunomia/internal/check"
	"eunomia/internal/htm"
)

// TestRegistryBuilds instantiates every registry entry once so a renamed
// constructor or config field cannot silently break repro resolution.
func TestRegistryBuilds(t *testing.T) {
	for name := range Registry {
		mk, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = check.RunWorkload(mk, check.Workload{
			Procs: 2, Ops: 6, Keys: 4,
			GetPct: 40, PutPct: 40, DelPct: 10, ScanPct: 10,
			Preload: true,
		}, htm.FaultSpec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Lookup("no-such-tree"); err == nil {
		t.Fatal("Lookup accepted an unknown tree name")
	}
}

// TestRepro replays the exact run named by EUNO_CHECK_REPRO. Sweep failures
// print a ready-made command line invoking this test; with the variable
// unset it is skipped. A repro of a failing case fails here with the full
// violation, which is the point: the one command shows the bug.
func TestRepro(t *testing.T) {
	env := os.Getenv("EUNO_CHECK_REPRO")
	if env == "" {
		t.Skip("EUNO_CHECK_REPRO not set; this test replays sweep failures")
	}
	r, err := check.ParseRepro(env)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := Lookup(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	hist, fi, err := check.RunWorkload(mk, r.Workload, r.Fault)
	st := hist.Stats()
	t.Logf("replayed %s: %d ops over %d keys, fault %s (visits=%d hits=%d)",
		r.Tree, st.Ops, st.Keys, r.Fault, fi.Visits(r.Fault.Point), fi.Hits(r.Fault.Point))
	if err != nil {
		t.Fatalf("repro reproduces:\n%v", err)
	}
	t.Logf("repro passed — the recorded history is linearizable")
}

// mutantSweep is the sweep that must catch the seeded seqno mutant: the
// stitch-point yields stretch the window between the upper-region descent
// and the lower-region leaf operation, which is exactly the window the
// disabled seqno re-validation was guarding.
func mutantSweep(seeds int) check.SweepConfig {
	sc := check.DefaultSweep(seeds)
	sc.Faults = []htm.FaultSpec{
		{Point: htm.FaultStitch, Action: htm.ActYield, Nth: 1},
		{Point: htm.FaultStitch, Action: htm.ActYield, Nth: 2},
	}
	return sc
}

func mutantSeeds() int {
	if testing.Short() {
		return 64
	}
	return 128
}

// TestMutantCaught is the checker's self-test: a tree with the lower-region
// seqno re-validation disabled (core.Config.DisableSeqnoCheck) must be
// rejected within the default seed budget, the failure must carry a printed
// one-command repro line, and replaying the parsed repro must fail
// deterministically.
func TestMutantCaught(t *testing.T) {
	mk, err := Lookup("euno-broken")
	if err != nil {
		t.Fatal(err)
	}
	histories, fail := check.Sweep("euno-broken", mk, mutantSweep(mutantSeeds()))
	if fail == nil {
		t.Fatalf("seqno mutant survived %d histories; the checker lost its teeth", histories)
	}
	t.Logf("mutant caught after %d histories", histories)
	t.Logf("repro: %s", fail.ReproLine())
	t.Logf("violation:\n%v", fail.Err)

	// The printed repro must replay to the same failure, twice (determinism).
	r, err := check.ParseRepro(check.Repro{Tree: fail.Tree, Workload: fail.Workload, Fault: fail.Fault}.String())
	if err != nil {
		t.Fatalf("emitted repro does not parse: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := check.RunWorkload(mk, r.Workload, r.Fault); err == nil {
			t.Fatalf("replay %d of the shrunk repro passed; repro is not deterministic", i)
		}
	}

	// The shrunk case must actually have shrunk from the sweep base, and the
	// healthy geometry must pass the very same schedule.
	base := mutantSweep(1).Base
	if fail.Workload.Ops >= base.Ops && fail.Workload.Procs >= base.Procs && fail.Workload.Keys >= base.Keys {
		t.Errorf("shrinking reduced nothing: %s (base %s)", fail.Workload, base)
	}
	healthy, err := Lookup("euno-tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := check.RunWorkload(healthy, r.Workload, r.Fault); err != nil {
		t.Errorf("healthy geometry fails the mutant's repro schedule:\n%v", err)
	}
}

// TestFaultPointsCoveredEuno is the coverage acceptance test for the Euno
// B+Tree: every named fault point — the upper/lower stitch, mid-split, the
// CCM lock/mark update, and fallback-lock entry — must be both visited and
// actually fired at least once per suite run, with the history staying
// linearizable throughout. The tiny geometry keeps splits frequent and the
// adaptive gate off keeps CCM active on every lower-region operation; with
// the gate on and a threshold of one abort (euno-adapt-tiny) the mid-split
// point is also the promotions', and the stitch is stretched across leaves
// that change state under it.
func TestFaultPointsCoveredEuno(t *testing.T) {
	for _, name := range []string{"euno-tiny", "euno-adapt-tiny"} {
		faultPointsCovered(t, name)
	}
}

func faultPointsCovered(t *testing.T, name string) {
	mk, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	wl := check.Workload{
		Procs: 3, Ops: 80, Keys: 48,
		GetPct: 20, PutPct: 60, DelPct: 15, ScanPct: 5,
		Preload: true, Seed: 7,
	}
	specs := []htm.FaultSpec{
		{Point: htm.FaultStitch, Action: htm.ActYield, Nth: 1},
		{Point: htm.FaultStitch, Action: htm.ActAbort, Nth: 2},
		{Point: htm.FaultMidSplit, Action: htm.ActYield, Nth: 1},
		{Point: htm.FaultMidSplit, Action: htm.ActAbort, Nth: 2},
		{Point: htm.FaultCCM, Action: htm.ActYield, Nth: 1},
		{Point: htm.FaultCCM, Action: htm.ActAbort, Nth: 2},
		{Point: htm.FaultFallback, Action: htm.ActFallback, Nth: 3},
	}
	covered := map[htm.FaultPoint]uint64{}
	for _, spec := range specs {
		_, fi, err := check.RunWorkload(mk, wl, spec)
		if err != nil {
			t.Fatalf("%s under fault %s:\n%v", name, spec, err)
		}
		if fi.Hits(spec.Point) == 0 {
			t.Fatalf("%s: fault %s never fired (visits=%d)", name, spec, fi.Visits(spec.Point))
		}
		covered[spec.Point] += fi.Hits(spec.Point)
	}
	for _, pt := range []htm.FaultPoint{htm.FaultStitch, htm.FaultMidSplit, htm.FaultCCM, htm.FaultFallback} {
		if covered[pt] == 0 {
			t.Errorf("%s: fault point %s not covered", name, pt)
		} else {
			t.Logf("%s: fault point %s: %d forced hits", name, pt, covered[pt])
		}
	}
}
