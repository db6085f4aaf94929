package crashcheck

import (
	"os"
	"strings"
	"testing"

	"eunomia"
)

// TestCrashSweepAllKinds is the headline robustness gate: for each of the
// four tree kinds, kill the machine at every IO point in a budget and
// verify via the linearizability checker that recovery loses no
// acknowledged write and resurrects nothing inconsistent with a prefix.
// In the default mode this fires >= 200 seeded crash points across the
// kinds (60 each); -short trims the budget for CI's quick lane.
func TestCrashSweepAllKinds(t *testing.T) {
	points := uint64(60)
	if testing.Short() {
		points = 15
	}
	kinds := []eunomia.Kind{eunomia.EunoBTree, eunomia.HTMBTree, eunomia.Masstree, eunomia.HTMMasstree}
	totalFired := 0
	for _, k := range kinds {
		base := Scenario{Kind: k, Procs: 2, Ops: 40, Keys: 16, Seed: uint64(k)*977 + 13}
		fired, err := Sweep(base, points)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if fired < int(points)*2/3 {
			t.Fatalf("%v: only %d of %d crash points fired", k, fired, points)
		}
		totalFired += fired
		t.Logf("%v: %d crash points fired, zero violations", k, fired)
	}
	if !testing.Short() && totalFired < 200 {
		t.Fatalf("total fired crash points %d < 200", totalFired)
	}
}

// TestCrashWithSnapshots exercises crash points that land inside the
// snapshot protocol (rotate, scan, footer, rename, truncate) by forcing
// frequent automatic snapshots.
func TestCrashWithSnapshots(t *testing.T) {
	points := uint64(40)
	if testing.Short() {
		points = 12
	}
	base := Scenario{Kind: eunomia.EunoBTree, Procs: 2, Ops: 60, Keys: 12,
		Seed: 41, SnapshotBytes: 512}
	fired, err := Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("no crash points fired")
	}
	t.Logf("snapshot-heavy sweep: %d crash points fired, zero violations", fired)
}

// TestCrashRecoverWriteRestart sweeps the full multi-incarnation
// sequence: crash with a possibly-torn tail, recover, acknowledge a new
// batch of writes on the healthy disk, restart cleanly, and recover
// again (twice). Every write acknowledged by an intermediate incarnation
// must survive the later restarts — this is the regression gate for
// physical torn-tail healing, since a recovery that only logically
// truncates a tear orphans the generations the intermediate incarnations
// wrote.
func TestCrashRecoverWriteRestart(t *testing.T) {
	points := uint64(40)
	if testing.Short() {
		points = 12
	}
	base := Scenario{Kind: eunomia.EunoBTree, Procs: 2, Ops: 30, Keys: 12,
		Seed: 23, Restarts: 2}
	fired, err := Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if fired < int(points)*2/3 {
		t.Fatalf("only %d of %d crash points fired", fired, points)
	}
	t.Logf("restart-cycle sweep: %d crash points fired, zero violations", fired)
}

// TestLyingDiskMutantCaught proves the harness has teeth: a disk whose
// fsync reports success and persists nothing (the classic durability bug,
// acknowledged writes that were never on disk) must produce a
// linearizability violation under the same sweep, with a working
// one-command repro.
func TestLyingDiskMutantCaught(t *testing.T) {
	base := Scenario{Kind: eunomia.EunoBTree, Procs: 1, Ops: 60, Keys: 8,
		Seed: 5, Shards: 2, LyingSync: true}
	var failing *Scenario
	for p := uint64(1); p <= 16; p++ {
		s := base
		s.CrashAtIO = p
		s.TornSeed = p * 17
		r := Run(s)
		if !r.Crashed {
			continue
		}
		if r.Err != nil {
			failing = &s
			break
		}
	}
	if failing == nil {
		t.Fatal("lying-disk mutant survived every crash point: the checker is blind")
	}
	// The repro token must round-trip and reproduce the violation.
	parsed, err := Parse(failing.String())
	if err != nil {
		t.Fatalf("repro token does not parse: %v", err)
	}
	if parsed != *failing {
		t.Fatalf("repro round-trip mismatch:\n  %+v\n  %+v", parsed, *failing)
	}
	if r := Run(parsed); r.Err == nil {
		t.Fatal("replayed repro did not reproduce the violation")
	}
	t.Logf("mutant caught; repro: %s", ReproLine(*failing))
}

// TestScenarioRoundtrip checks String/Parse over fully populated single-DB
// and cluster scenarios, and that the repro line of each names its own
// entry point.
func TestScenarioRoundtrip(t *testing.T) {
	single := Scenario{Kind: eunomia.Masstree, Procs: 3, Ops: 99, Keys: 31, Seed: 8,
		CrashAtIO: 42, TornSeed: 77, Restarts: 2,
		Shards: 4, SnapshotBytes: 4096, LyingSync: true}
	cluster := single
	cluster.Cluster, cluster.Kill, cluster.Barrier, cluster.Heal = 5, 11, true, true
	cluster.AdmitBeforeReplay, cluster.Reshard, cluster.CutBeforeCatchup = true, 7, true
	for _, s := range []Scenario{single, cluster} {
		parsed, err := Parse(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != s {
			t.Fatalf("round-trip mismatch:\n  in:  %+v\n  out: %+v", s, parsed)
		}
	}
	if line := ReproLine(single); !strings.Contains(line, "EUNO_CRASH_REPRO=") || !strings.Contains(line, "-run TestCrashRepro ") {
		t.Fatalf("single-DB repro line: %s", line)
	}
	if line := ReproLine(cluster); !strings.Contains(line, "EUNO_CLUSTER_CRASH_REPRO=") || !strings.Contains(line, "-run TestClusterCrashRepro ") {
		t.Fatalf("cluster repro line: %s", line)
	}
	for _, bad := range []string{"bogus", "nope=1", "seed=x"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("token %q parsed", bad)
		}
	}
	// A token recorded when the WAL had a timed mode cannot replay: it is
	// refused by name, not replayed as something else.
	for _, old := range []string{"interval=1000", "flushbytes=256"} {
		if _, err := Parse(old); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("Parse(%q) = %v, want an unknown-field error", old, err)
		}
	}
}

// TestCrashRepro replays the scenario in EUNO_CRASH_REPRO, the
// one-command repro printed when a sweep fails. With the variable unset it
// is a no-op.
func TestCrashRepro(t *testing.T) {
	tok := os.Getenv("EUNO_CRASH_REPRO")
	if tok == "" {
		t.Skip("EUNO_CRASH_REPRO not set")
	}
	s, err := Parse(tok)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(s)
	t.Logf("replay: crashed=%v acked=%d checked=%d", r.Crashed, r.Acked, r.Checked)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}
