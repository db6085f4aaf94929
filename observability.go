package eunomia

import (
	"sort"

	"eunomia/internal/durable"
	"eunomia/internal/htm"
	"eunomia/internal/obs"
	"eunomia/internal/simmem"
)

// This file is the public face of the observability layer (internal/obs)
// and the unified metrics API. The event vocabulary is aliased rather
// than wrapped so a user Observer and the internal emission sites share
// one Event type with no translation cost on the hot path.

// Observer consumes observability events; see Observability.Observer.
// Implementations must be safe for concurrent use (every worker goroutine
// delivers events directly) and must not call back into the DB.
type Observer = obs.Observer

// Event is one observability record; see the Ev* kinds.
type Event = obs.Event

// EventKind discriminates Event records.
type EventKind = obs.EventKind

// Event kinds (see the internal/obs documentation for per-kind field
// semantics).
const (
	EvTxBegin  = obs.EvTxBegin
	EvTxCommit = obs.EvTxCommit
	EvTxAbort  = obs.EvTxAbort
	EvFallback = obs.EvFallback
	EvStitch   = obs.EvStitch
	EvWALFlush = obs.EvWALFlush
	// NumEventKinds bounds the kind ordinals (for indexing by kind).
	NumEventKinds = obs.NumEventKinds
)

// TraceWriter renders recorded events as Chrome trace-event JSON; create
// one with NewTraceWriter, attach tw.Process(name) as the Observer, and
// render with tw.Encode.
type TraceWriter = obs.TraceWriter

// TraceOptions configures NewTraceWriter.
type TraceOptions = obs.TraceOptions

// NewTraceWriter creates a Chrome-trace recorder.
func NewTraceWriter(opt TraceOptions) *TraceWriter { return obs.NewTraceWriter(opt) }

// HotLeaf is one hot-leaf heatmap entry; see ContentionMetrics.HotLeaves.
type HotLeaf = obs.LeafHeat

// Observability configures the observability layer. The zero value
// disables it entirely: every emission site then costs one nil check, and
// virtual-time figure metrics are bit-identical to an un-instrumented
// build (observer callbacks never advance the virtual clock, so this
// holds even when observability is on).
type Observability struct {
	// Observer receives every event the DB's device and durability layer
	// emit. Optional; may be combined with the built-in heatmap.
	Observer Observer
	// Heatmap enables the built-in per-leaf contention heatmap, surfaced
	// through Metrics.Contention: every abort is sampled into a ring of the
	// 4096 most recent and a table of the 64 hottest leaves.
	Heatmap bool
}

// TxMetrics counts transactional behavior: across every thread of the DB
// in Metrics (as of each thread's last report), for one thread in
// Thread.Stats, and across RunVirtual's cores in VirtualResult.
type TxMetrics struct {
	Attempts  uint64
	Commits   uint64
	Aborts    uint64
	Fallbacks uint64
	// WastedCycles is the time burned inside aborted attempts: virtual
	// cycles for RunVirtual's threads, wall nanoseconds for NewThread's.
	WastedCycles uint64
	TxLoads      uint64
	TxStores     uint64
	// AbortsByReason maps the paper's abort taxonomy ("conflict-false",
	// "conflict-meta", "conflict-true", "capacity", "explicit",
	// "fallback-lock") to counts. Reasons with zero counts are omitted.
	AbortsByReason map[string]uint64
}

// TreeMetrics reports Euno-B+Tree structural maintenance (all zero for
// the other tree kinds).
type TreeMetrics struct {
	Splits      uint64
	Compactions uint64
	MarkRejects uint64
	RootRetries uint64
	MaintRounds uint64
}

// ContentionMetrics reports the built-in heatmap (Enabled false — and all
// else zero — unless Observability.Heatmap is set).
type ContentionMetrics struct {
	Enabled       bool
	AbortsSeen    uint64
	AbortsSampled uint64
	// HotLeaves is the hot-leaf table, hottest first. Entries with
	// Annotated report a tree-node (leaf) id; the rest attribute to a raw
	// conflicting cache line (the non-Euno trees do not annotate nodes).
	HotLeaves []HotLeaf
}

// Metrics is one coherent snapshot of everything the DB can report about
// itself: transactional behavior with the abort-reason decomposition,
// memory accounting, tree maintenance, durability counters, and — when
// enabled — the contention heatmap. It replaced the former per-subsystem
// accessors (MemoryStats, DurabilityStats), now removed; their types
// remain as sections of this snapshot.
type Metrics struct {
	Tx         TxMetrics
	Memory     MemoryStats
	Tree       TreeMetrics
	Durability DurabilityStats
	Contention ContentionMetrics
}

// Metrics returns the unified snapshot. It is safe to call concurrently
// with operations; transactional counters reflect each worker's last
// completed operation.
func (db *DB) Metrics() Metrics {
	s := db.layerStats()
	return s.metrics()
}

// layerStats is one read of a DB's layers, each in its own type. Metrics
// translates one; ClusterMetrics merges its shards' with the layers' own
// merges and translates the sum, so an aggregate's flush quantiles are
// those of the merged histogram.
type layerStats struct {
	tx    htm.Stats
	mem   MemoryStats
	tree  TreeMetrics
	durOn bool
	dur   durable.Stats
	heat  ContentionMetrics
}

// layerStats reads every layer of db once.
func (db *DB) layerStats() layerStats {
	s := layerStats{
		tx: db.device.DeviceStats(),
		mem: MemoryStats{
			LiveBytes:     db.arena.LiveBytes(),
			PeakBytes:     db.arena.PeakBytes(),
			ReservedBytes: db.arena.BytesByTag(simmem.TagReserved),
			CCMBytes:      db.arena.BytesByTag(simmem.TagCCM),
		},
	}
	if db.dur != nil {
		s.durOn, s.dur = true, db.dur.Stats()
	}
	if db.euno != nil {
		s.tree = TreeMetrics{
			Splits:      db.euno.Splits(),
			Compactions: db.euno.Compactions(),
			MarkRejects: db.euno.MarkRejects(),
			RootRetries: db.euno.RootRetries(),
			MaintRounds: db.euno.MaintRounds(),
		}
	}
	if db.heat != nil {
		seen, sampled := db.heat.Seen()
		s.heat = ContentionMetrics{Enabled: true, AbortsSeen: seen, AbortsSampled: sampled, HotLeaves: db.heat.Hot()}
	}
	return s
}

// merge adds o into s: counters add, histograms merge, hot leaves pool.
func (s *layerStats) merge(o *layerStats) {
	s.tx.Merge(&o.tx)
	s.mem.LiveBytes += o.mem.LiveBytes
	s.mem.PeakBytes += o.mem.PeakBytes
	s.mem.ReservedBytes += o.mem.ReservedBytes
	s.mem.CCMBytes += o.mem.CCMBytes
	s.tree.Splits += o.tree.Splits
	s.tree.Compactions += o.tree.Compactions
	s.tree.MarkRejects += o.tree.MarkRejects
	s.tree.RootRetries += o.tree.RootRetries
	s.tree.MaintRounds += o.tree.MaintRounds
	s.durOn = s.durOn || o.durOn
	s.dur.Merge(&o.dur)
	s.heat.Enabled = s.heat.Enabled || o.heat.Enabled
	s.heat.AbortsSeen += o.heat.AbortsSeen
	s.heat.AbortsSampled += o.heat.AbortsSampled
	s.heat.HotLeaves = append(s.heat.HotLeaves, o.heat.HotLeaves...)
}

// metrics translates s to the public snapshot: hot leaves hottest first,
// the flush quantiles and mean batch derived from the flush record.
func (s *layerStats) metrics() Metrics {
	m := Metrics{Tx: txMetricsOf(&s.tx), Memory: s.mem, Tree: s.tree, Contention: s.heat}
	sort.SliceStable(m.Contention.HotLeaves, func(i, j int) bool {
		return m.Contention.HotLeaves[i].Total > m.Contention.HotLeaves[j].Total
	})
	if d := &s.dur; s.durOn {
		m.Durability = DurabilityStats{
			Enabled:        true,
			Flushes:        d.Flushes,
			FlushedFrames:  d.FlushedFrames,
			FlushedBytes:   d.FlushedBytes,
			MaxBatch:       d.MaxBatch,
			FlushP50Ns:     d.Lat.Quantile(0.50),
			FlushP99Ns:     d.Lat.Quantile(0.99),
			FlushMaxNs:     d.Lat.Max(),
			Snapshots:      d.Snapshots,
			SnapshotErrors: d.SnapshotErrors,
			RecoveryNs:     d.Recovery.DurationNs,
			SnapshotPairs:  d.Recovery.SnapshotPairs,
			ReplayedFrames: d.Recovery.ReplayedFrames,
			TornTails:      d.Recovery.TornTails,
		}
		if d.Flushes > 0 {
			m.Durability.AvgBatch = float64(d.FlushedFrames) / float64(d.Flushes)
		}
	}
	return m
}
