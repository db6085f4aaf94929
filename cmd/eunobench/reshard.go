package main

// The `reshardchaos` subcommand measures serving behavior through a live
// topology change: an open-loop Poisson load (openloop.go) with a
// deliberately hot range-partitioned shard, a mid-run Reshard that doubles
// the shard count, and a per-bucket goodput + p99 timeline through bulk
// copy, fenced cutovers, and purge. Two numbers are the contract (and the
// reason to reshard at all): goodput during the migration should hold
// >= ~90% of the pre-migration baseline (the copy runs behind the
// serving path; only the fenced final drains stall writers, briefly and
// per-interval), and post-split p99 should improve on the baseline (the
// hot shard's interval now spans two shards, halving its queueing).
//
// Results append to a JSON artifact when -benchjson names one (none is
// checked in; `make bench-reshard` writes BENCH_reshard.json locally)
// with the same label-dedup behavior as the other artifacts. Numbers are
// machine-dependent; the two ratios are the shape under study.

import (
	"fmt"
	"runtime"
	"time"

	"eunomia"
	"eunomia/internal/harness"
	"eunomia/internal/metrics"
	"eunomia/internal/vclock"
	"eunomia/internal/workload"
)

const (
	reshardShards = 4 // serving topology before the split
	reshardTarget = 8 // topology after: the hot interval spans two shards
	// reshardHotPct of arrivals target the hottest shard's interval.
	reshardHotPct = 80
)

// reshardResult is the scenario's record in the artifact.
type reshardResult struct {
	OfferedOps  float64 `json:"offered_ops_per_sec"`
	CapacityOps float64 `json:"capacity_ops_per_sec"`
	Arrivals    uint64  `json:"arrivals"`
	Completed   uint64  `json:"completed"`
	Errors      uint64  `json:"errors"`
	Dropped     uint64  `json:"dropped"`

	ShardsBefore int   `json:"shards_before"`
	ShardsAfter  int   `json:"shards_after"`
	ReshardMS    int64 `json:"reshard_ms"` // wall time of the Reshard call
	ReshardOK    bool  `json:"reshard_ok"`
	ReadbackOK   bool  `json:"readback_ok"`

	// Windowed metrics: baseline (pre-trigger), migration (trigger →
	// completion), post (completion → end).
	BaselineGoodput       float64 `json:"baseline_goodput_ops_per_sec"`
	MigrationGoodput      float64 `json:"migration_goodput_ops_per_sec"`
	PostGoodput           float64 `json:"post_goodput_ops_per_sec"`
	MigrationGoodputRatio float64 `json:"migration_goodput_ratio"` // target >= 0.9
	BaselineP99Ns         uint64  `json:"baseline_p99_ns"`
	MigrationP99Ns        uint64  `json:"migration_p99_ns"`
	PostP99Ns             uint64  `json:"post_p99_ns"`
	PostP99Ratio          float64 `json:"post_p99_ratio"` // post/baseline, target < 1

	// Routing-layer counters from ClusterMetrics.Topology at run end.
	RoutingEpochBumps uint64 `json:"routing_epoch_bumps"`
	RoutingGen        uint64 `json:"routing_gen"`
	MovesDone         uint64 `json:"moves_done"`
	RedirectedOps     uint64 `json:"redirected_ops"`

	TriggerBucket    int      `json:"trigger_bucket"`
	DoneBucket       int      `json:"done_bucket"`
	TimelineBucketMS int64    `json:"timeline_bucket_ms"`
	TimelineOK       []uint64 `json:"timeline_ok"`     // completed-OK per bucket
	TimelineP99Us    []uint64 `json:"timeline_p99_us"` // sojourn p99 per bucket
}

// reshardSpread maps a logical key in [1, keys] onto the full uint64 key
// line, so Range partitioning cuts the logical space into real intervals.
func reshardSpread(keys, k uint64) uint64 {
	return k * (^uint64(0) / keys)
}

// reshardOps is the scenario's op source: 80/20 get/put with the
// hot-shard skew — most arrivals land in the hottest shard's quarter of
// the logical space. Scans and deletes are left out on purpose: a merged
// cross-shard Range flattens the per-shard timeline this scenario exists
// to chart.
func reshardOps(keys uint64) opSource {
	return func(rng *vclock.Rand) workload.Op {
		span := keys
		if rng.Uint64()%100 < reshardHotPct {
			span = keys / reshardShards
		}
		op := workload.Op{Kind: workload.OpGet, Key: reshardSpread(keys, rng.Uint64()%span+1)}
		if rng.Uint64()%100 >= 80 {
			op.Kind = workload.OpPut
		}
		return op
	}
}

// reshardChaosCmd runs the scenario and records it.
func reshardChaosCmd() {
	art := openArtifact("Reshard",
		"Open-loop load with a deliberately hot range shard through a "+
			"live 4->8 reshard; regenerate with `make bench-reshard`. The two "+
			"ratios are the contract: migration_goodput_ratio compares goodput "+
			"while the migration runs against the pre-trigger baseline (target "+
			">= 0.9 — the copy runs behind the serving path), and post_p99_ratio "+
			"compares post-split p99 against baseline (target < 1 — the hot "+
			"interval now spans two shards). Numbers are machine-dependent: "+
			"check gomaxprocs/num_cpu; the offered rate is calibrated per "+
			"machine unless -swarmrate pins it.")
	keys, dur := loopScale(4*time.Second, 1500*time.Millisecond)

	// Preloaded across the spread key line so the migration has real data
	// to move.
	c, _, err := openLoopCluster(eunomia.ClusterOptions{
		Shards:    reshardShards,
		Partition: eunomia.RangePartition,
	}, reshardTarget, keys, func(k uint64) uint64 { return reshardSpread(keys, k) })
	if err != nil {
		die(err)
	}
	defer c.Close()

	capacity := calibrate(c, *seed+2000, reshardOps(keys))
	res := runReshardChaos(c, keys, dur, offeredRate(capacity, 0.70))
	res.CapacityOps = capacity

	tbl := harness.Table{
		Title: fmt.Sprintf("reshardchaos: open-loop load with a hot shard through a live %d->%d reshard "+
			"(GOMAXPROCS=%d, NumCPU=%d, %d workers, %v)",
			reshardShards, reshardTarget, runtime.GOMAXPROCS(0), runtime.NumCPU(), loopWorkers(), dur),
		Header: []string{"window", "goodput(ops/s)", "p99(us)"},
	}
	tbl.AddRow("baseline", metrics.FormatOps(res.BaselineGoodput), fmt.Sprintf("%.1f", float64(res.BaselineP99Ns)/1e3))
	tbl.AddRow("migration", metrics.FormatOps(res.MigrationGoodput), fmt.Sprintf("%.1f", float64(res.MigrationP99Ns)/1e3))
	tbl.AddRow("post-split", metrics.FormatOps(res.PostGoodput), fmt.Sprintf("%.1f", float64(res.PostP99Ns)/1e3))
	emit(&tbl)
	fmt.Printf("reshard: %d->%d in %dms at bucket %d..%d (ok=%v readback=%v); "+
		"migration goodput %.1f%% of baseline (target >=90%%); post-split p99 %.2fx baseline (target <1); "+
		"epoch=%d gen=%d moves=%d redirects=%d\n",
		res.ShardsBefore, res.ShardsAfter, res.ReshardMS, res.TriggerBucket, res.DoneBucket,
		res.ReshardOK, res.ReadbackOK,
		100*res.MigrationGoodputRatio, res.PostP99Ratio,
		res.RoutingEpochBumps, res.RoutingGen, res.MovesDone, res.RedirectedOps)

	run := newLoopRun("reshardchaos", reshardShards, keys, dur, res)
	art.save(run.Label, run)
}

// runReshardChaos drives the open-loop phase with the mid-run split.
func runReshardChaos(c *eunomia.Cluster, keys uint64, dur time.Duration, offered float64) reshardResult {
	// The split fires at 30% of the run and blocks until the migration
	// completes (bulk copy, catch-up, fenced cutovers, purge).
	trig, done := -1, -1
	var reshardTook time.Duration
	var reshardErr error
	l := openLoop{c: c, dur: dur, offered: offered, seed: *seed + 11, next: reshardOps(keys),
		event: func(bucket func() int) {
			time.Sleep(dur * 30 / 100)
			trig = bucket()
			t0 := time.Now()
			reshardErr = c.Reshard(reshardTarget)
			reshardTook = time.Since(t0)
			done = bucket()
		}}
	lr := l.run()

	nb := len(lr.ok)
	trig = max(trig, 1)
	if done < trig || done >= nb {
		done = nb - 2
	}
	// Skip the ramp-up bucket in the baseline and the final partial one in
	// the post window.
	baseGood, baseP99 := lr.window(1, trig)
	migGood, migP99 := lr.window(trig, done+1)
	postGood, postP99 := lr.window(done+1, nb-1)

	cm := c.ClusterMetrics()
	res := reshardResult{
		OfferedOps:        offered,
		Arrivals:          lr.arrivals,
		Completed:         lr.completed,
		Errors:            lr.errors,
		Dropped:           lr.dropped,
		ShardsBefore:      reshardShards,
		ShardsAfter:       cm.Topology.Shards,
		ReshardMS:         reshardTook.Milliseconds(),
		ReshardOK:         reshardErr == nil,
		BaselineGoodput:   baseGood,
		MigrationGoodput:  migGood,
		PostGoodput:       postGood,
		BaselineP99Ns:     baseP99,
		MigrationP99Ns:    migP99,
		PostP99Ns:         postP99,
		RoutingEpochBumps: cm.Topology.Epoch,
		RoutingGen:        cm.Topology.RoutingGen,
		MovesDone:         cm.Topology.MovesDone,
		RedirectedOps:     cm.Topology.Redirects,
		TriggerBucket:     trig,
		DoneBucket:        done,
		TimelineBucketMS:  loopBucket.Milliseconds(),
		TimelineOK:        lr.ok,
	}
	if baseGood > 0 {
		res.MigrationGoodputRatio = migGood / baseGood
	}
	if baseP99 > 0 {
		res.PostP99Ratio = float64(postP99) / float64(baseP99)
	}
	for b := range lr.sojourn {
		res.TimelineP99Us = append(res.TimelineP99Us, lr.sojourn[b].Snapshot().P99/1000)
	}
	// Readback: sample logical keys across the line; every one was
	// durably acknowledged at preload (and maybe overwritten since), so
	// every one must still be present after the migration.
	res.ReadbackOK = true
	sess := c.NewSession()
	defer sess.Close()
	for k := uint64(1); k <= keys; k += keys/200 + 1 {
		if _, ok, err := sess.Get(reshardSpread(keys, k)); err != nil || !ok {
			res.ReadbackOK = false
			break
		}
	}
	return res
}
