package main

// The `swarm` subcommand is the open-loop serving benchmark (openloop.go):
// Poisson arrivals at a calibrated offered rate against a durable 4-shard
// cluster.
//
// `swarmchaos` is the same run with a fault schedule: one shard's disk
// is killed mid-run and revived later. The per-shard health breaker must
// confine the damage (healthy-shard goodput holds while routed ops to
// the dead shard fail fast), and the repair loop must bring the shard
// back (WAL replay + probation) before the run ends. The per-bucket
// goodput timeline charts the whole arc: failure, degraded plateau,
// repair, recovery.
//
// Results append to a JSON artifact (-benchjson, conventionally
// BENCH_swarm.json) with the same label-dedup behavior as the other
// artifacts. Numbers are machine-dependent: the offered rate is
// auto-calibrated to a fraction of measured capacity unless -swarmrate
// pins it.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"eunomia"
	"eunomia/internal/durable"
	"eunomia/internal/harness"
	"eunomia/internal/metrics"
	"eunomia/internal/workload"
)

// swarmShards is the cluster width both scenarios run against: 4 fault
// domains, so killing one leaves a 3-shard healthy majority.
const swarmShards = 4

// swarmResult is one scenario's record in the artifact.
type swarmResult struct {
	Scenario    string  `json:"scenario"` // "swarm" | "swarmchaos"
	OfferedOps  float64 `json:"offered_ops_per_sec"`
	CapacityOps float64 `json:"capacity_ops_per_sec"` // closed-loop calibration
	GoodputOps  float64 `json:"goodput_ops_per_sec"`  // completed-OK rate
	Arrivals    uint64  `json:"arrivals"`
	Completed   uint64  `json:"completed"`
	Errors      uint64  `json:"errors"`
	Dropped     uint64  `json:"dropped"` // shed at the admission queue
	// Sojourn (arrival → completion, queue wait included) percentiles.
	P50Ns  uint64 `json:"p50_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
	// Fault-domain counters from ClusterMetrics at run end.
	Trips         uint64 `json:"trips"`
	Repairs       uint64 `json:"repairs"`
	Shed          uint64 `json:"shed"`
	Retries       uint64 `json:"retries"`
	RetriesDenied uint64 `json:"retries_denied"`
	// Routing-layer counters: epoch bumps count topology changes the run
	// saw (0 unless a reshard ran), redirected ops count ErrMoved
	// retries sessions absorbed while their routing view was stale.
	RoutingEpochBumps uint64 `json:"routing_epoch_bumps"`
	RedirectedOps     uint64 `json:"redirected_ops"`
	// Chaos-only fields.
	KilledShard         int      `json:"killed_shard,omitempty"`
	Repaired            bool     `json:"repaired,omitempty"`
	ReadbackOK          bool     `json:"readback_ok,omitempty"`
	HealthyGoodputRatio float64  `json:"healthy_goodput_ratio,omitempty"`
	KillBucket          int      `json:"kill_bucket,omitempty"`
	RebootBucket        int      `json:"reboot_bucket,omitempty"`
	RepairedBucket      int      `json:"repaired_bucket,omitempty"`
	TimelineBucketMS    int64    `json:"timeline_bucket_ms,omitempty"`
	TimelineHealthy     []uint64 `json:"timeline_healthy,omitempty"` // OK ops on surviving shards, per bucket
	TimelineKilled      []uint64 `json:"timeline_killed,omitempty"`  // OK ops on the killed shard, per bucket
}

// swarmOps is both scenarios' op source: the paper's mix over a
// theta=0.9 Zipfian.
func swarmOps(keys uint64) opSource {
	return workload.NewStream(workload.Spec{Kind: workload.Zipfian, N: keys, Theta: 0.9}, workload.DefaultMix).Next
}

// swarmCmd runs one scenario and records it.
func swarmCmd(chaos bool) {
	art := openArtifact("Swarm",
		"Open-loop Poisson load (and its chaos variant) against the "+
			"durable 4-shard cluster with fault domains on; regenerate with "+
			"`make bench-swarm`. Sojourn percentiles include queue wait — "+
			"that is the point of open-loop. Numbers are machine-dependent: "+
			"check gomaxprocs/num_cpu, and note the offered rate is "+
			"calibrated per machine unless -swarmrate pins it. In the chaos "+
			"run, healthy_goodput_ratio compares surviving-shard goodput "+
			"during the outage to its pre-kill baseline (target >= 0.9), and "+
			"the timeline arrays chart goodput per 100ms bucket through "+
			"kill, degraded serving, reboot, and repair.")
	keys, dur := loopScale(3*time.Second, time.Second)

	// Repair is tuned to complete within the run.
	c, fses, err := openLoopCluster(eunomia.ClusterOptions{
		Shards: swarmShards,
		Repair: eunomia.RepairOptions{Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
			Probes: 3, ProbeInterval: 2 * time.Millisecond},
	}, swarmShards, keys, func(k uint64) uint64 { return k })
	if err != nil {
		die(err)
	}
	defer c.Close()

	capacity := calibrate(c, *seed+1000, swarmOps(keys))
	res := runSwarm(c, fses, keys, dur, offeredRate(capacity, 0.75), chaos)
	res.CapacityOps = capacity

	tbl := harness.Table{
		Title: fmt.Sprintf("%s: open-loop Poisson load over a %d-shard durable cluster "+
			"(GOMAXPROCS=%d, NumCPU=%d, %d workers, %v)",
			res.Scenario, swarmShards, runtime.GOMAXPROCS(0), runtime.NumCPU(), loopWorkers(), dur),
		Header: []string{"offered(ops/s)", "goodput(ops/s)", "arrivals", "completed",
			"errors", "dropped", "p50(us)", "p99(us)", "p999(us)"},
	}
	tbl.AddRow(metrics.FormatOps(res.OfferedOps), metrics.FormatOps(res.GoodputOps),
		fmt.Sprint(res.Arrivals), fmt.Sprint(res.Completed), fmt.Sprint(res.Errors),
		fmt.Sprint(res.Dropped),
		fmt.Sprintf("%.1f", float64(res.P50Ns)/1e3),
		fmt.Sprintf("%.1f", float64(res.P99Ns)/1e3),
		fmt.Sprintf("%.1f", float64(res.P999Ns)/1e3))
	emit(&tbl)
	if chaos {
		fmt.Printf("chaos: shard %d killed at bucket %d, rebooted at %d, re-admitted at %d "+
			"(repaired=%v readback_ok=%v); healthy-shard goodput through the outage: %.1f%% of baseline; "+
			"trips=%d repairs=%d shed=%d retries=%d denied=%d\n",
			res.KilledShard, res.KillBucket, res.RebootBucket, res.RepairedBucket,
			res.Repaired, res.ReadbackOK, 100*res.HealthyGoodputRatio,
			res.Trips, res.Repairs, res.Shed, res.Retries, res.RetriesDenied)
	}
	run := newLoopRun(res.Scenario, swarmShards, keys, dur, res)
	art.save(run.Label, run)
}

// runSwarm drives the open-loop phase against an opened, preloaded
// cluster and returns the measured result.
func runSwarm(c *eunomia.Cluster, fses []*durable.MemFS, keys uint64, dur time.Duration, offered float64, chaos bool) swarmResult {
	const killedShard = 1
	l := openLoop{c: c, dur: dur, offered: offered, seed: *seed + 7, next: swarmOps(keys)}
	// Chaos splits the completed-OK timeline at the fault domain boundary
	// and runs the fault schedule: kill one disk at 35%, revive it at 60%,
	// then watch for re-admission.
	okKilled := make([]atomic.Uint64, l.buckets())
	killB, rebootB, repairedB, repaired := -1, -1, -1, false
	if chaos {
		l.done = func(op workload.Op, b int) {
			if c.ShardFor(op.Key) == killedShard {
				okKilled[b].Add(1)
			}
		}
		l.event = func(bucket func() int) {
			time.Sleep(dur * 35 / 100)
			killB = bucket()
			fses[killedShard].Kill()
			time.Sleep(dur * 25 / 100)
			rebootB = bucket()
			fses[killedShard].Reboot()
			for deadline := time.Now().Add(dur + 5*time.Second); time.Now().Before(deadline); {
				if c.ShardState(killedShard) == eunomia.ShardHealthy {
					repairedB, repaired = bucket(), true
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	lr := l.run()

	var all metrics.Histogram
	for b := range lr.sojourn {
		all.Merge(&lr.sojourn[b])
	}
	ls := all.Snapshot()
	cm := c.ClusterMetrics()
	res := swarmResult{
		Scenario:      "swarm",
		OfferedOps:    offered,
		GoodputOps:    float64(lr.completed) / dur.Seconds(),
		Arrivals:      lr.arrivals,
		Completed:     lr.completed,
		Errors:        lr.errors,
		Dropped:       lr.dropped,
		P50Ns:         ls.P50,
		P99Ns:         ls.P99,
		P999Ns:        ls.P999,
		Trips:         cm.Fault.Trips,
		Repairs:       cm.Fault.Repairs,
		Shed:          cm.Fault.ShedOps,
		Retries:       cm.Fault.Retries,
		RetriesDenied: cm.Fault.RetriesDenied,

		RoutingEpochBumps: cm.Topology.Epoch,
		RedirectedOps:     cm.Topology.Redirects,
	}
	if !chaos {
		return res
	}
	okHealthy, killed := lr.ok, make([]uint64, len(okKilled))
	for b := range killed {
		killed[b] = okKilled[b].Load()
		okHealthy[b] -= killed[b]
	}
	res.Scenario = "swarmchaos"
	res.KilledShard = killedShard
	res.Repaired = repaired
	res.KillBucket = killB
	res.RebootBucket = rebootB
	res.RepairedBucket = repairedB
	res.TimelineBucketMS = loopBucket.Milliseconds()
	res.TimelineHealthy = okHealthy
	res.TimelineKilled = killed
	res.HealthyGoodputRatio = healthyRatio(okHealthy, killB, rebootB)
	if repaired {
		res.ReadbackOK = swarmReadback(c, keys, killedShard)
	}
	return res
}

// healthyRatio compares healthy-shard goodput during the outage window
// against the pre-kill baseline: the fault-domain promise is that a dead
// shard costs its own slice of the key space and nothing else.
func healthyRatio(okHealthy []uint64, killB, rebootB int) float64 {
	if killB < 2 || rebootB <= killB+1 {
		return 0
	}
	base := mean(okHealthy[1:killB]) // skip the first (ramp-up) bucket
	out := mean(okHealthy[killB+1 : rebootB])
	if base == 0 {
		return 0
	}
	return out / base
}

func mean(v []uint64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := uint64(0)
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// swarmReadback samples keys owned by the re-admitted shard: every key
// was acknowledged durably during preload, so every one must still be
// served after WAL replay.
func swarmReadback(c *eunomia.Cluster, keys uint64, shard int) bool {
	sess := c.NewSession()
	defer sess.Close()
	checked := 0
	for k := uint64(1); k <= keys && checked < 200; k++ {
		if c.ShardFor(k) != shard {
			continue
		}
		checked++
		if _, ok, err := sess.Get(k); err != nil || !ok {
			return false
		}
	}
	return checked > 0
}
