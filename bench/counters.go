package main

import "eunomia"

// snap is a store's public counters at a quiescent point.
type snap struct {
	m  eunomia.Metrics
	cm *eunomia.ClusterMetrics // nil for a single DB
}

func snapshot(st eunomia.Store) snap {
	if c, ok := st.(*eunomia.Cluster); ok {
		cm := c.ClusterMetrics()
		return snap{m: cm.Agg, cm: &cm}
	}
	return snap{m: st.Metrics()}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the difference of two snapshots taken around ops
// operations (writes of them logged writes) into the counter-based
// per-layer metrics. On the host backend a thread folds its counters into
// the device every 64 executions, so the deltas are exact to within that.
func counterMetrics(res *result, before, after snap, ops uint64, writes float64) {
	n := float64(ops)
	a, b := &after.m, &before.m
	sub := func(x, y uint64) float64 { return float64(x - y) }
	attempts := sub(a.Tx.Attempts, b.Tx.Attempts)
	out := res.layer
	out["htm.attempts_per_op"] = ratio(attempts, n)
	out["htm.commit_ratio"] = ratio(sub(a.Tx.Commits, b.Tx.Commits), attempts)
	out["htm.aborts_per_op"] = ratio(sub(a.Tx.Aborts, b.Tx.Aborts), n)
	for name, reason := range map[string]string{
		"htm.abort_conflict_true_per_op":  "conflict-true",
		"htm.abort_conflict_false_per_op": "conflict-false",
		"htm.abort_conflict_meta_per_op":  "conflict-meta",
		"htm.abort_capacity_per_op":       "capacity",
	} {
		out[name] = ratio(sub(a.Tx.AbortsByReason[reason], b.Tx.AbortsByReason[reason]), n)
	}
	out["htm.fallbacks_per_kop"] = ratio(sub(a.Tx.Fallbacks, b.Tx.Fallbacks), n) * 1e3
	out["htm.loads_per_op"] = ratio(sub(a.Tx.TxLoads, b.Tx.TxLoads), n)
	out["htm.stores_per_op"] = ratio(sub(a.Tx.TxStores, b.Tx.TxStores), n)

	out["core.splits_per_kop"] = ratio(sub(a.Tree.Splits, b.Tree.Splits), n) * 1e3
	out["core.compactions_per_kop"] = ratio(sub(a.Tree.Compactions, b.Tree.Compactions), n) * 1e3
	out["core.mark_rejects_per_kop"] = ratio(sub(a.Tree.MarkRejects, b.Tree.MarkRejects), n) * 1e3
	out["core.root_retries_per_kop"] = ratio(sub(a.Tree.RootRetries, b.Tree.RootRetries), n) * 1e3

	mem := after.m.Memory
	out["simmem.live_bytes"] = float64(mem.LiveBytes)
	out["simmem.peak_bytes"] = float64(mem.PeakBytes)
	out["simmem.ccm_bytes"] = float64(mem.CCMBytes)
	out["simmem.reserved_bytes"] = float64(mem.ReservedBytes)

	if dur := after.m.Durability; dur.Enabled {
		flushes := sub(a.Durability.Flushes, b.Durability.Flushes)
		out["durable.flushes_per_write"] = ratio(flushes, writes)
		out["durable.frames_per_flush"] = ratio(sub(a.Durability.FlushedFrames, b.Durability.FlushedFrames), flushes)
		// A put carries 16 B of user data (key and value).
		out["durable.bytes_per_write"] = ratio(sub(a.Durability.FlushedBytes, b.Durability.FlushedBytes), 16*writes)
		// The store reports its flush quantiles only since open, preload
		// included, and from factor-of-two buckets: they are not deltas.
		out["durable.flush_p50_ns"] = float64(dur.FlushP50Ns)
		out["durable.flush_p99_ns"] = float64(dur.FlushP99Ns)
		out["durable.snapshots"] = sub(a.Durability.Snapshots, b.Durability.Snapshots)
	}

	if after.cm == nil {
		return
	}
	out["cluster.redirects"] = float64(after.cm.Topology.Redirects - before.cm.Topology.Redirects)
	out["cluster.retries"] = float64(after.cm.Fault.Retries - before.cm.Fault.Retries)
	out["cluster.shed_ops"] = float64(after.cm.Fault.ShedOps - before.cm.Fault.ShedOps)
	out["shard.trips"] = float64(after.cm.Fault.Trips - before.cm.Fault.Trips)
	var max, sum float64
	for i := range after.cm.PerShard {
		c := float64(after.cm.PerShard[i].Tx.Commits - before.cm.PerShard[i].Tx.Commits)
		sum += c
		if c > max {
			max = c
		}
	}
	out["cluster.shard_imbalance"] = ratio(max, sum/float64(len(after.cm.PerShard)))
}
