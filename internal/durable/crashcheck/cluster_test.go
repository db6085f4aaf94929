package crashcheck

import (
	"os"
	"testing"

	"eunomia"
	"eunomia/internal/durable"
)

// TestClusterCrashSweep is the cluster acceptance gate: >= 100 seeded
// crash points (full mode) killing seeded subsets of the shard disks,
// every recovered cluster verified by the linearizability checker.
// -short trims the budget for CI's quick lane.
func TestClusterCrashSweep(t *testing.T) {
	points := uint64(60)
	if testing.Short() {
		points = 15
	}
	base := Scenario{Cluster: 3, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 40, Keys: 16, Seed: 31}
	fired, err := Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if fired < int(points)*2/3 {
		t.Fatalf("only %d of %d cluster crash points fired", fired, points)
	}
	t.Logf("cluster sweep: %d crash points fired across shard subsets, zero violations", fired)
}

// TestClusterCrashMidBarrier drives crash points through the cluster
// snapshot barrier: a mid-run Cluster.Snapshot syncs every shard and
// commits the manifest while a seeded disk subset — including, some
// points, the manifest disk itself — is dying.
func TestClusterCrashMidBarrier(t *testing.T) {
	points := uint64(50)
	if testing.Short() {
		points = 12
	}
	base := Scenario{Cluster: 3, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 40, Keys: 16, Seed: 57, Barrier: true}
	fired, err := Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("no crash points fired")
	}
	t.Logf("mid-barrier sweep: %d crash points fired, zero violations", fired)
}

// TestClusterCrashRestartCycles runs the Restarts cycles at the cluster
// level: crash a shard subset, recover the cluster, acknowledge new
// writes, restart cleanly twice more. Torn-tail healing and
// later-generation replay must hold independently in every shard's WAL
// group.
func TestClusterCrashRestartCycles(t *testing.T) {
	points := uint64(40)
	if testing.Short() {
		points = 10
	}
	base := Scenario{Cluster: 3, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 30, Keys: 12, Seed: 71, Restarts: 2}
	fired, err := Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if fired < int(points)*2/3 {
		t.Fatalf("only %d of %d crash points fired", fired, points)
	}
	t.Logf("cluster restart-cycle sweep: %d crash points fired, zero violations", fired)
}

// TestClusterAckBeforeFlushMutantCaught: the cluster harness must retain
// the single-DB harness's teeth — shards that acknowledge before fsync
// lose acknowledged writes on a shard-subset crash, and the checker (or
// the barrier verification) must reject the recovered cluster.
func TestClusterAckBeforeFlushMutantCaught(t *testing.T) {
	// The broken mode still flushes once a shard's pending batch passes a
	// fixed size, so it has IO points mid-run to crash at (otherwise nothing
	// is ever written and the crash lands inside Open, before anything is
	// acknowledged).
	base := Scenario{Cluster: 3, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 60, Keys: 8, Seed: 5, AckBeforeFlush: true}
	var failing *Scenario
	for p := uint64(1); p <= 24; p++ {
		s := base
		s.CrashAtIO = p
		s.TornSeed = p * 17
		s.Kill = p%uint64(1<<base.Cluster-1) + 1
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
		t.Fatal("cluster ack-before-flush mutant survived every crash point: the checker is blind")
	}
	parsed, err := Parse(failing.String())
	if err != nil {
		t.Fatalf("repro token does not parse: %v", err)
	}
	if parsed != *failing {
		t.Fatalf("repro round-trip mismatch:\n  %+v\n  %+v", parsed, *failing)
	}
	if r := Run(parsed); r.Err == nil {
		t.Fatal("replayed cluster repro did not reproduce the violation")
	}
	t.Logf("cluster mutant caught; repro: %s", ReproLine(*failing))
}

// TestClusterCrashHealSweep: the self-healing gate. Seeded crash points
// kill seeded shard-disk subsets mid-run; the disks then come back and
// the cluster's own repair loop — trip, reopen, WAL replay, watermark
// check, probation — must re-admit every shard, after which the
// re-admitted cluster takes acknowledged writes and the whole history
// (pre-crash acks, open windows, post-heal acks, post-reboot reads) is
// checked linearizable.
func TestClusterCrashHealSweep(t *testing.T) {
	points := uint64(30)
	if testing.Short() {
		points = 8
	}
	base := Scenario{Cluster: 3, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 40, Keys: 16, Seed: 93, Heal: true}
	fired, healed := 0, 0
	for p := uint64(1); p <= points; p++ {
		s := base
		s.CrashAtIO = p
		s.TornSeed = p*2654435761 + base.Seed
		s.Kill = p%uint64(1<<base.Cluster-1) + 1 // shard disks only
		r := Run(s)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Crashed {
			fired++
		}
		if r.Healed {
			healed++
		}
	}
	if fired == 0 || healed == 0 {
		t.Fatalf("heal sweep exercised nothing: fired=%d healed=%d", fired, healed)
	}
	t.Logf("heal sweep: %d crash points fired, %d clusters healed in place, zero violations", fired, healed)
}

// TestClusterHealMutantCaught: repair with AdmitBeforeReplay — re-admit
// with no replay, no watermark check, no probation — must be caught by
// the heal fuzzer. If every crash point survives, the probation gate is
// decorative.
func TestClusterHealMutantCaught(t *testing.T) {
	base := Scenario{Cluster: 3, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 40, Keys: 16, Seed: 93, Heal: true, AdmitBeforeReplay: true}
	var failing *Scenario
	for p := uint64(1); p <= 24 && failing == nil; p++ {
		s := base
		s.CrashAtIO = p
		s.TornSeed = p*2654435761 + base.Seed
		s.Kill = p%uint64(1<<base.Cluster-1) + 1
		r := Run(s)
		if !r.Crashed || r.Err == nil {
			continue
		}
		// Whether the premature re-admission is observed depends on how the
		// hammer rounds interleave with the mutant repair loop, so only a
		// point that fails again is accepted — the printed repro token must
		// be actionable, not a one-off scheduling fluke.
		for try := 0; try < 5; try++ {
			if Run(s).Err != nil {
				failing = &s
				break
			}
		}
	}
	if failing == nil {
		t.Fatal("admit-before-replay mutant survived every heal crash point: the probation gate is blind")
	}
	parsed, err := Parse(failing.String())
	if err != nil {
		t.Fatalf("repro token does not parse: %v", err)
	}
	if parsed != *failing {
		t.Fatalf("repro round-trip mismatch:\n  %+v\n  %+v", parsed, *failing)
	}
	// The replay races the mutant repair loop against wall-clock hammer
	// rounds, so reproduction probability per attempt is high but not 1 —
	// and drops further on a loaded machine (race detector, parallel
	// packages). The budget is sized so a genuine repro practically cannot
	// miss while a fixed bug still fails fast.
	reproduced := false
	for try := 0; try < 30 && !reproduced; try++ {
		reproduced = Run(parsed).Err != nil
	}
	if !reproduced {
		t.Fatal("replayed heal-mutant repro did not reproduce the violation in 30 attempts")
	}
	t.Logf("heal mutant caught; repro: %s", ReproLine(*failing))
}

// TestClusterReshardCrashSweep drives seeded crash points through a live
// 2->4 split running concurrently with the writers: points land mid
// bulk-copy, mid-catch-up, inside the fenced cutover's manifest commit,
// and during purge — on source disks, the freshly opened destination
// disks, or the root disk holding the migration manifest. Every recovered
// cluster (which resumes the migration from the journaled watermarks,
// then survives a restart cycle) must check linearizable.
func TestClusterReshardCrashSweep(t *testing.T) {
	points := uint64(40)
	if testing.Short() {
		points = 10
	}
	base := Scenario{Cluster: 2, Reshard: 4, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 50, Keys: 24, Seed: 131, Restarts: 1}
	fired, err := Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("no crash points fired during the reshard sweep")
	}
	t.Logf("reshard sweep: %d crash points fired mid-migration, zero violations", fired)
}

// TestClusterReshardMergeCrashSweep is the shrink direction: a 4->2 merge
// retires two serving shards while their keys drain to the survivors.
func TestClusterReshardMergeCrashSweep(t *testing.T) {
	points := uint64(24)
	if testing.Short() {
		points = 6
	}
	base := Scenario{Cluster: 4, Reshard: 2, Kind: eunomia.EunoBTree,
		Procs: 2, Ops: 40, Keys: 20, Seed: 177}
	fired, err := Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("no crash points fired during the merge sweep")
	}
	t.Logf("merge sweep: %d crash points fired mid-migration, zero violations", fired)
}

// TestClusterReshardMutantCaught: a migration that cuts over without
// draining the dirty set loses writes acknowledged during the copy window
// — no crash needed, just live writers concurrent with the move. The
// harness must catch it: if every seed survives, the catch-up drain (and
// the fence around the final one) is decorative.
func TestClusterReshardMutantCaught(t *testing.T) {
	// The universe must be big enough that the bulk copy genuinely
	// overlaps the writers — over a small one the migration finishes
	// before a single racing write lands.
	base := Scenario{Cluster: 3, Reshard: 5, CutBeforeCatchup: true,
		Kind: eunomia.EunoBTree, Procs: 3, Ops: 200, Keys: 2048, Kill: 1}
	var failing *Scenario
	for seed := uint64(1); seed <= 8 && failing == nil; seed++ {
		s := base
		s.Seed = seed
		// The overlap between the writers and the copy window is a real
		// race; accept a seed only if it fails repeatably enough to print.
		for try := 0; try < 3; try++ {
			if Run(s).Err != nil {
				failing = &s
				break
			}
		}
	}
	if failing == nil {
		t.Fatal("cut-before-catch-up mutant survived every seed: the migration fuzzer is blind")
	}
	parsed, err := Parse(failing.String())
	if err != nil {
		t.Fatalf("repro token does not parse: %v", err)
	}
	if parsed != *failing {
		t.Fatalf("repro round-trip mismatch:\n  %+v\n  %+v", parsed, *failing)
	}
	reproduced := false
	for try := 0; try < 10 && !reproduced; try++ {
		reproduced = Run(parsed).Err != nil
	}
	if !reproduced {
		t.Fatal("replayed reshard-mutant repro did not reproduce the violation in 10 attempts")
	}
	t.Logf("reshard mutant caught; repro: %s", ReproLine(*failing))
}

// TestClusterBarrierDetectsRolledBackShard: commit a snapshot barrier,
// then replace one shard's disk with an empty one (a lost disk / stale
// backup). OpenCluster must refuse to serve: the shard recovers below the
// barrier vector, a state no single point in time ever had.
func TestClusterBarrierDetectsRolledBackShard(t *testing.T) {
	fses := make([]*durable.MemFS, 3)
	for i := range fses {
		fses[i] = durable.NewMemFS(durable.FaultPlan{})
	}
	manifestFS := durable.NewMemFS(durable.FaultPlan{})
	opts := func() eunomia.ClusterOptions {
		return eunomia.ClusterOptions{
			Shards: 3,
			Shard: eunomia.Options{
				ArenaWords: 1 << 19,
				Durability: eunomia.Durability{Dir: "clusterdb", FS: manifestFS},
			},
			PerShard: func(i int, o *eunomia.Options) { o.Durability.FS = fses[i] },
		}
	}
	c, err := eunomia.OpenCluster(opts())
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession()
	for k := uint64(1); k <= 64; k++ {
		if err := sess.Put(k, k<<8|1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Sanity: an intact cluster reopens fine.
	c2, err := eunomia.OpenCluster(opts())
	if err != nil {
		t.Fatalf("intact cluster failed to reopen: %v", err)
	}
	c2.Close()

	// Wipe shard 1's disk. The barrier manifest survives; reopen must fail.
	fses[1] = durable.NewMemFS(durable.FaultPlan{})
	if _, err := eunomia.OpenCluster(opts()); err == nil {
		t.Fatal("cluster opened with a wiped shard behind a committed barrier: rollback undetected")
	} else {
		t.Logf("rolled-back shard rejected: %v", err)
	}
}

// TestClusterCrashRepro replays the scenario in EUNO_CLUSTER_CRASH_REPRO,
// the one-command repro printed when a cluster sweep fails.
func TestClusterCrashRepro(t *testing.T) {
	tok := os.Getenv("EUNO_CLUSTER_CRASH_REPRO")
	if tok == "" {
		t.Skip("EUNO_CLUSTER_CRASH_REPRO not set")
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
