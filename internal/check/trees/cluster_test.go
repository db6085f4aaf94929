package checktrees

import (
	"strings"
	"testing"

	"eunomia/internal/check"
	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
	"eunomia/internal/workload"
)

// TestClusterSweep is the cluster-level linearizability acceptance run:
// the router + N shard devices are one checked object, so any disagreement
// between a write's route and a later read's route — or any per-shard tree
// bug — fails the sweep. Full mode runs 64 seeds on the default-geometry
// cluster (the acceptance bar) plus 32 on the split-heavy tiny cluster.
func TestClusterSweep(t *testing.T) {
	cases := []struct {
		name         string
		seeds, short int
	}{
		{"euno-cluster", 64, 12},
		{"euno-cluster-tiny", 32, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seeds := c.seeds
			if testing.Short() {
				seeds = c.short
			}
			mk, err := Lookup(c.name)
			if err != nil {
				t.Fatal(err)
			}
			histories, fail := check.Sweep(c.name, mk, check.DefaultSweep(seeds))
			if fail != nil {
				t.Fatalf("cluster sweep failed after %d histories:\n%v", histories, fail)
			}
			t.Logf("%s: %d histories linearizable (%d seeds)", c.name, histories, seeds)
		})
	}
}

// TestClusterMutantCaught proves the checker has teeth at the cluster
// level: a router that "rebalances" (shifts every key's owner by one
// shard) without migrating data must be rejected, the failure must shrink,
// and the shrunk one-command repro must replay the violation
// deterministically while the healthy cluster passes the same schedule.
func TestClusterMutantCaught(t *testing.T) {
	mk, err := Lookup("euno-cluster-broken")
	if err != nil {
		t.Fatal(err)
	}
	histories, fail := check.Sweep("euno-cluster-broken", mk, check.DefaultSweep(8))
	if fail == nil {
		t.Fatalf("router mutant survived %d histories; the cluster checker lost its teeth", histories)
	}
	t.Logf("router mutant caught after %d histories", histories)
	t.Logf("repro: %s", fail.ReproLine())
	if !strings.Contains(fail.ReproLine(), "tree=euno-cluster-broken") {
		t.Errorf("repro line does not name the cluster entry: %s", fail.ReproLine())
	}

	r, err := check.ParseRepro(check.Repro{Tree: fail.Tree, Workload: fail.Workload, Fault: fail.Fault}.String())
	if err != nil {
		t.Fatalf("emitted repro does not parse: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := check.RunWorkload(mk, r.Workload, r.Fault); err == nil {
			t.Fatalf("replay %d of the shrunk repro passed; cluster repro is not deterministic", i)
		}
	}

	// The mutant is in the router, not the trees: the same shards with an
	// honest router must pass the exact failing schedule.
	healthy, err := Lookup("euno-cluster-tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := check.RunWorkload(healthy, r.Workload, r.Fault); err != nil {
		t.Errorf("healthy cluster fails the router mutant's repro schedule:\n%v", err)
	}
}

// TestClusterReshardSweep checks linearizability with a live migration in
// flight: the reshard registry entry starts a 3->4 topology change 16 ops
// into every history and advances one move per subsequent op, so the
// checker linearizes reads and writes against every intermediate routing
// state — mid-copy, mid-cutover, mid-purge.
func TestClusterReshardSweep(t *testing.T) {
	seeds := 48
	if testing.Short() {
		seeds = 10
	}
	mk, err := Lookup("euno-cluster-reshard")
	if err != nil {
		t.Fatal(err)
	}
	histories, fail := check.Sweep("euno-cluster-reshard", mk, check.DefaultSweep(seeds))
	if fail != nil {
		t.Fatalf("reshard sweep failed after %d histories:\n%v", histories, fail)
	}
	t.Logf("euno-cluster-reshard: %d histories linearizable (%d seeds)", histories, seeds)
}

// TestClusterReshardMutantCaught proves the checker sees migration bugs:
// a cutover that commits one op before its data copy leaves the
// destination serving a hole (stale reads) and lets the late copy clobber
// writes landed in the window (lost updates). The sweep must reject it,
// the failure must replay deterministically, and the fenced migration
// must pass the same schedule.
func TestClusterReshardMutantCaught(t *testing.T) {
	mk, err := Lookup("euno-cluster-reshard-broken")
	if err != nil {
		t.Fatal(err)
	}
	histories, fail := check.Sweep("euno-cluster-reshard-broken", mk, check.DefaultSweep(8))
	if fail == nil {
		t.Fatalf("flip-before-copy mutant survived %d histories; the migration checker lost its teeth", histories)
	}
	t.Logf("migration mutant caught after %d histories", histories)
	t.Logf("repro: %s", fail.ReproLine())
	if !strings.Contains(fail.ReproLine(), "tree=euno-cluster-reshard-broken") {
		t.Errorf("repro line does not name the reshard entry: %s", fail.ReproLine())
	}

	r, err := check.ParseRepro(check.Repro{Tree: fail.Tree, Workload: fail.Workload, Fault: fail.Fault}.String())
	if err != nil {
		t.Fatalf("emitted repro does not parse: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := check.RunWorkload(mk, r.Workload, r.Fault); err == nil {
			t.Fatalf("replay %d of the shrunk repro passed; migration repro is not deterministic", i)
		}
	}

	// The mutant is in the cutover ordering, not the migration itself: the
	// correctly fenced reshard must pass the exact failing schedule.
	healthy, err := Lookup("euno-cluster-reshard")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := check.RunWorkload(healthy, r.Workload, r.Fault); err != nil {
		t.Errorf("fenced migration fails the mutant's repro schedule:\n%v", err)
	}
}

// TestClusterFaultsReachShards: the caller device's fault injector must
// propagate into the shard devices — otherwise every sweep fault variant
// silently skips the cluster entries.
func TestClusterFaultsReachShards(t *testing.T) {
	mk, err := Lookup("euno-cluster-tiny")
	if err != nil {
		t.Fatal(err)
	}
	wl := check.Workload{
		Procs: 3, Ops: 60, Keys: 24,
		GetPct: 20, PutPct: 60, DelPct: 15, ScanPct: 5,
		Preload: true, Seed: 11,
	}
	spec := htm.FaultSpec{Point: htm.FaultStitch, Action: htm.ActYield, Nth: 2}
	_, fi, err := check.RunWorkload(mk, wl, spec)
	if err != nil {
		t.Fatalf("cluster under stitch faults:\n%v", err)
	}
	if fi.Hits(spec.Point) == 0 {
		t.Fatalf("stitch fault never fired inside any shard (visits=%d)", fi.Visits(spec.Point))
	}
	t.Logf("stitch fired %d times across shard devices", fi.Hits(spec.Point))
}

// TestClusterShardsSplitContention: under a hot Zipfian mix, hash
// sharding must decompose the contention domain — the single-shard run
// concentrates every conflict on one device, so more shards can only hold
// or reduce the per-op abort rate. Eight virtual cores in lockstep, so the
// comparison is exact, not statistical.
func TestClusterShardsSplitContention(t *testing.T) {
	const (
		cores, opsPerCore = 8, 400
		keys              = 512
	)
	run := func(shards int) (abortsPerOp float64, cycles uint64) {
		h := htm.New(simmem.NewArena(1<<12), htm.DefaultConfig)
		boot := h.NewThread(vclock.NewWallProc(0, 0), 3)
		c := newClusterKV(h, shards, func(dev *htm.HTM, boot *htm.Thread) tree.KV {
			return core.New(dev, boot, core.DefaultConfig)
		}, 0)
		workload.ForEachPreload(keys, 50, func(key uint64) { c.Put(boot, key, key*31+7) })
		aborts := func() (n uint64) {
			for _, dev := range c.devices {
				st := dev.DeviceStats()
				n += st.TotalAborts()
			}
			return n
		}
		before := aborts()
		sim := vclock.NewSim(cores, 0)
		sim.Run(func(p *vclock.SimProc) {
			th := h.NewThread(p, 3+uint64(p.ID())*7919+1)
			stream := workload.NewStream(
				workload.Spec{Kind: workload.Zipfian, N: keys, Theta: 0.99},
				workload.Mix{GetPct: 50, PutPct: 50})
			for i := 0; i < opsPerCore; i++ {
				if op := stream.Next(th.Rand); op.Kind == workload.OpGet {
					c.Get(th, op.Key)
				} else {
					c.Put(th, op.Key, op.Key<<8|uint64(i)&0xff)
				}
			}
		})
		return float64(aborts()-before) / (cores * opsPerCore), sim.MaxClock()
	}
	a1, c1 := run(1)
	a4, c4 := run(4)
	t.Logf("1 shard: aborts/op=%.3f cycles=%d; 4 shards: aborts/op=%.3f cycles=%d", a1, c1, a4, c4)
	if a4 > a1 {
		t.Fatalf("4 shards aborts/op %.3f > 1 shard %.3f: sharding failed to split the contention domain", a4, a1)
	}
}
