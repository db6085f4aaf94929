package eunomia

import "sort"

// ClusterMetrics is the cluster-wide unified snapshot: the per-shard
// Metrics plus their aggregate, and the fault-domain layer's view.
type ClusterMetrics struct {
	// Shards is the shard count.
	Shards int
	// Agg sums (or, where summing is meaningless, conservatively merges)
	// every shard's Metrics.
	Agg Metrics
	// PerShard holds each shard's own snapshot, index-aligned with
	// Cluster.DB.
	PerShard []Metrics
	// Health holds each shard's breaker state, index-aligned.
	Health []ShardHealthMetrics
	// Fault aggregates the fault-domain layer's counters.
	Fault FaultMetrics
	// Topology is the routing layer's view: epoch, generation, and the
	// reshard counters.
	Topology TopologyMetrics
}

// TopologyMetrics is the routing table's state plus the migration
// engine's lifetime counters.
type TopologyMetrics struct {
	// Epoch counts completed topology changes.
	Epoch uint64
	// RoutingGen is the routing generation (bumps on migration begin,
	// every interval cutover, and finish).
	RoutingGen uint64
	// Shards is the serving slot count under the current view.
	Shards int
	// Migrating reports an in-flight topology change.
	Migrating bool
	// MovesDone counts migration intervals fully completed (copied, cut
	// over, purged) over the cluster's lifetime.
	MovesDone uint64
	// Redirects counts operations re-routed mid-flight because their key's
	// interval cut over under them.
	Redirects uint64
}

// Metrics returns the cluster-wide aggregate snapshot — the
// Store-interface view. Use ClusterMetrics for the per-shard breakdown,
// health states and topology counters.
func (c *Cluster) Metrics() Metrics { return c.ClusterMetrics().Agg }

// ClusterMetrics returns one coherent snapshot of every shard plus the
// aggregate. Like DB.Metrics, it is safe to call concurrently with
// operations. A repaired shard's counters restart with its recovered
// incarnation.
func (c *Cluster) ClusterMetrics() ClusterMetrics {
	shards := c.shardList()
	v := c.table.View()
	cm := ClusterMetrics{Shards: len(shards)}
	cm.Fault = FaultMetrics{
		ShedOps:       c.shed.Load(),
		Retries:       c.retries.Load(),
		RetriesDenied: c.retriesDenied.Load(),
	}
	cm.Topology = TopologyMetrics{
		Epoch:      v.Epoch,
		RoutingGen: v.Gen,
		Shards:     v.Shards(),
		Migrating:  v.Migrating(),
		MovesDone:  c.movesDone.Load(),
		Redirects:  c.redirects.Load(),
	}
	for _, sh := range shards {
		m := sh.db.Load().Metrics()
		cm.PerShard = append(cm.PerShard, m)
		mergeMetrics(&cm.Agg, &m)
		hs := sh.health.Stats()
		cm.Health = append(cm.Health, ShardHealthMetrics{
			State:     ShardState(hs.State),
			Permanent: hs.Permanent,
			Failures:  hs.Failures,
			Trips:     hs.Trips,
			Repairs:   hs.Repairs,
			Cause:     hs.Cause,
		})
		cm.Fault.Trips += hs.Trips
		cm.Fault.Repairs += hs.Repairs
	}
	sort.Slice(cm.Agg.Contention.HotLeaves, func(i, j int) bool {
		return cm.Agg.Contention.HotLeaves[i].Total > cm.Agg.Contention.HotLeaves[j].Total
	})
	return cm
}

// mergeMetrics folds src into dst. Counters add; percentiles and booleans
// merge conservatively (max / or).
func mergeMetrics(dst *Metrics, src *Metrics) {
	dst.Tx.Attempts += src.Tx.Attempts
	dst.Tx.Commits += src.Tx.Commits
	dst.Tx.Aborts += src.Tx.Aborts
	dst.Tx.Fallbacks += src.Tx.Fallbacks
	dst.Tx.WastedCycles += src.Tx.WastedCycles
	dst.Tx.TxLoads += src.Tx.TxLoads
	dst.Tx.TxStores += src.Tx.TxStores
	if len(src.Tx.AbortsByReason) > 0 && dst.Tx.AbortsByReason == nil {
		dst.Tx.AbortsByReason = map[string]uint64{}
	}
	for r, n := range src.Tx.AbortsByReason {
		dst.Tx.AbortsByReason[r] += n
	}
	dst.Memory.LiveBytes += src.Memory.LiveBytes
	dst.Memory.PeakBytes += src.Memory.PeakBytes
	dst.Memory.ReservedBytes += src.Memory.ReservedBytes
	dst.Memory.CCMBytes += src.Memory.CCMBytes
	dst.Tree.Splits += src.Tree.Splits
	dst.Tree.Compactions += src.Tree.Compactions
	dst.Tree.MarkRejects += src.Tree.MarkRejects
	dst.Tree.RootRetries += src.Tree.RootRetries
	dst.Tree.MaintRounds += src.Tree.MaintRounds
	d, s := &dst.Durability, &src.Durability
	d.Enabled = d.Enabled || s.Enabled
	d.Flushes += s.Flushes
	d.FlushedFrames += s.FlushedFrames
	d.FlushedBytes += s.FlushedBytes
	if s.MaxBatch > d.MaxBatch {
		d.MaxBatch = s.MaxBatch
	}
	if d.Flushes > 0 {
		d.AvgBatch = float64(d.FlushedFrames) / float64(d.Flushes)
	}
	if s.FlushP50Ns > d.FlushP50Ns {
		d.FlushP50Ns = s.FlushP50Ns
	}
	if s.FlushP99Ns > d.FlushP99Ns {
		d.FlushP99Ns = s.FlushP99Ns
	}
	if s.FlushMaxNs > d.FlushMaxNs {
		d.FlushMaxNs = s.FlushMaxNs
	}
	d.Snapshots += s.Snapshots
	d.SnapshotErrors += s.SnapshotErrors
	d.RecoveryNs += s.RecoveryNs
	d.SnapshotPairs += s.SnapshotPairs
	d.ReplayedFrames += s.ReplayedFrames
	d.TornTails += s.TornTails
	dst.Contention.Enabled = dst.Contention.Enabled || src.Contention.Enabled
	dst.Contention.AbortsSeen += src.Contention.AbortsSeen
	dst.Contention.AbortsSampled += src.Contention.AbortsSampled
	dst.Contention.HotLeaves = append(dst.Contention.HotLeaves, src.Contention.HotLeaves...)
}
