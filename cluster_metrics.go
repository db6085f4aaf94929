package eunomia

// ClusterMetrics is the cluster-wide unified snapshot: the per-shard
// Metrics plus their aggregate, and the fault-domain layer's view.
type ClusterMetrics struct {
	// Shards is the shard count.
	Shards int
	// Agg is the shards' merged snapshot: their counters summed and their
	// histograms merged, from the same reads PerShard reports, so every
	// counter equals the sum of PerShard's and the flush quantiles are the
	// cluster's.
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
	var agg layerStats
	for _, sh := range shards {
		s := sh.db.Load().layerStats()
		cm.PerShard = append(cm.PerShard, s.metrics())
		agg.merge(&s)
		hs := sh.health.Stats()
		cm.Health = append(cm.Health, hs)
		cm.Fault.Trips += hs.Trips
		cm.Fault.Repairs += hs.Repairs
	}
	cm.Agg = agg.metrics()
	return cm
}
