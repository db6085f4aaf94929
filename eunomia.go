// Package eunomia is a Go reproduction of "Eunomia: Scaling Concurrent
// Search Trees under Contention Using HTM" (PPoPP 2017): a concurrent
// B+Tree library built on an emulated hardware-transactional-memory
// substrate, together with the paper's three comparison trees and the
// benchmark harness that regenerates its evaluation.
//
// Because Go cannot execute real RTM transactions (and the runtime/GC
// would abort them anyway), the library runs against a software-emulated
// HTM over a flat memory arena with cache-line-granularity conflict
// detection and a virtual-time multicore simulator — see DESIGN.md for the
// substitution argument. The API below is therefore shaped a little
// differently from an ordinary map: a DB owns the arena and the emulated
// device; each worker goroutine obtains a Thread handle carrying its
// clock, statistics and RNG. The clock decides what a thread costs: a
// goroutine's handle keeps wall time and runs the protocol at native
// speed, outside the cost model, while a virtual core under RunVirtual is
// charged for every access in deterministic virtual time. Every DB serves
// both.
//
// Quickstart:
//
//	db, err := eunomia.Open(eunomia.Options{})
//	defer db.Close()
//	th := db.NewThread()
//	th.Put(1, 100)
//	v, ok, _ := th.Get(1)
//	for k, v := range th.Range(0, 10) { // range query, Go iterator form
//		_ = k + v
//	}
//
// Operations on a closed DB return ErrClosed. With Options.Durability
// set, writes are group-committed to a write-ahead log and acknowledged
// only after they are on disk; DB.Sync forces buffered bytes down,
// DB.Snapshot captures the tree and truncates the log, and Open replays
// both on restart. Every DB's operations wait out a held fallback lock
// instead of retrying into it (the paper's lemming collapse is what the
// figures study, not what the library ships), and Options.Observability
// enables abort attribution, contention heatmaps and structured tracing;
// DB.Metrics returns the unified snapshot of every counter the DB keeps.
//
// For deterministic virtual-time parallel execution (the mode all paper
// figures use), see DB.RunVirtual.
package eunomia

import (
	"errors"
	"fmt"
	"iter"
	"sync/atomic"

	"eunomia/internal/core"
	"eunomia/internal/durable"
	"eunomia/internal/htm"
	"eunomia/internal/obs"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/tree/kind"
	"eunomia/internal/vclock"
)

// Kind selects a tree implementation.
type Kind = kind.Kind

// The four tree designs the paper evaluates.
const (
	// EunoBTree is the paper's contribution: two-region HTM transactions,
	// partitioned leaves, a conflict control module and adaptive
	// concurrency control.
	EunoBTree = kind.EunoBTree
	// HTMBTree is the conventional baseline: one monolithic HTM region
	// per operation.
	HTMBTree = kind.HTMBTree
	// Masstree is the fine-grained comparator with optimistic versioned
	// locks (no HTM).
	Masstree = kind.Masstree
	// HTMMasstree wraps the Masstree code in one HTM region per operation
	// with its locks elided.
	HTMMasstree = kind.HTMMasstree
)

// Backend once selected a DB-wide execution engine.
//
// Deprecated: no effect. Every DB runs one engine: a Thread from NewThread
// runs at native speed outside the cost model, and RunVirtual's threads run
// in deterministic virtual time, on every DB (see DESIGN.md §10).
type Backend int

// Deprecated: no effect; see Backend.
const (
	Emulated Backend = iota
	Host
)

// Options configures Open.
type Options struct {
	// Kind selects the tree implementation (default EunoBTree).
	Kind Kind
	// ArenaWords is the memory capacity in 8-byte words (default 1<<24,
	// i.e. 128 MiB).
	ArenaWords uint64
	// Deprecated: no effect; see Backend.
	Backend Backend
	// Durability enables crash durability (write-ahead log + snapshots,
	// recovered on Open) when Durability.Dir is non-empty. Durable DBs are
	// wall-clock only: RunVirtual panics, because blocking on real fsyncs
	// inside the lockstep virtual-time scheduler would deadlock it.
	Durability Durability
	// Observability enables the observability layer: a pluggable event
	// Observer plus the built-in per-leaf contention heatmap. The zero
	// value keeps it fully disabled (zero-cost); see DB.Metrics for the
	// unified counters, which work regardless.
	Observability Observability
}

// ErrReservedValue is returned by Put for the one value the trees reserve
// internally (the deletion tombstone).
var ErrReservedValue = errors.New("eunomia: value ^uint64(0) is reserved")

// DB is a key-value store backed by one of the four trees over a private
// arena and emulated HTM device. All methods on DB are safe for concurrent
// use; per-worker operations go through Thread handles.
type DB struct {
	opts     Options
	arena    *simmem.Arena
	device   *htm.HTM
	kv       tree.KV
	euno     *core.Tree     // non-nil when Kind == EunoBTree
	dur      *durable.Store // non-nil when durability is enabled
	observer obs.Observer   // the observer chain as one (nil when disabled)
	heat     *obs.Heatmap   // non-nil when Observability.Heatmap
	closed   atomic.Bool
	// handles counts the Threads NewThread has made; the n-th is labelled
	// proc n+1 (the boot thread is proc 0, and 1 is left unused).
	handles atomic.Int64
}

// Open creates a DB.
func Open(opts Options) (*DB, error) {
	if opts.Kind < EunoBTree || opts.Kind > HTMMasstree {
		return nil, fmt.Errorf("eunomia: unknown kind %v", opts.Kind)
	}
	if opts.ArenaWords == 0 {
		opts.ArenaWords = 1 << 24
	}
	arena := simmem.NewArena(opts.ArenaWords)
	// Every DB is hardened, whichever tree Kind selects: an operation whose
	// transaction aborts because the global fallback lock is held waits for
	// the lock to clear before it retries, instead of retrying into it and
	// then queueing for the lock itself (the convoy that collapses a
	// contended HTM tree). It costs nothing where nothing falls back.
	hcfg := htm.DefaultConfig
	hcfg.LemmingWait = true
	var heat *obs.Heatmap
	oo := opts.Observability
	if oo.Heatmap {
		heat = obs.NewHeatmap(obs.HeatmapConfig{})
	}
	var chain []obs.Observer
	if oo.Observer != nil {
		chain = append(chain, oo.Observer)
	}
	if heat != nil {
		chain = append(chain, heat)
	}
	hcfg.Observer = obs.Multi(chain...)
	device := htm.New(arena, hcfg)
	boot := device.NewHostThread(0, 1)

	db := &DB{opts: opts, arena: arena, device: device,
		observer: hcfg.Observer, heat: heat}
	db.kv = kind.New(opts.Kind, device, boot, core.DefaultConfig)
	db.euno, _ = db.kv.(*core.Tree)
	if opts.Durability.Dir != "" {
		if err := db.openDurable(boot, opts.Durability); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Kind returns the tree implementation in use.
func (db *DB) Kind() Kind { return db.opts.Kind }

// Thread is a per-worker handle. A Thread must be used by one goroutine at
// a time; create one per worker with NewThread (or receive one inside
// RunVirtual). Creating a Thread is cheap.
type Thread struct {
	db *DB
	th *htm.Thread
}

// NewThread creates a worker handle for one goroutine. It runs the
// protocol at native speed, outside the cost model, and any number of
// handles may be live at once. Close the handle when its worker ends: a
// handle reports its statistics to Metrics every 64 operations, and Close
// reports the rest.
func (db *DB) NewThread() *Thread {
	id := int(db.handles.Add(1)) + 1
	return &Thread{db: db, th: db.device.NewHostThread(id, uint64(id)*0x9e3779b9+1)}
}

// Get returns the value stored under key.
func (t *Thread) Get(key uint64) (uint64, bool, error) {
	if t.db.closed.Load() {
		return 0, false, ErrClosed
	}
	v, ok := t.db.kv.Get(t.th, key)
	return v, ok, nil
}

// Put inserts or updates key. With durability enabled, Put returns only
// after the operation is on disk (acknowledged-only-after-flush); a
// returned error means the write is in memory but NOT durable.
func (t *Thread) Put(key, val uint64) error {
	if val == tree.Tombstone {
		return ErrReservedValue
	}
	if t.db.closed.Load() {
		return ErrClosed
	}
	if t.db.dur == nil {
		t.db.kv.Put(t.th, key, val)
		return nil
	}
	if err := t.db.dur.LogPut(key, val, func() { t.db.kv.Put(t.th, key, val) }); err != nil {
		return durErr(err)
	}
	t.maybeSnapshot()
	return nil
}

// Delete removes key, reporting whether it was present. Durability
// semantics match Put.
func (t *Thread) Delete(key uint64) (bool, error) {
	if t.db.closed.Load() {
		return false, ErrClosed
	}
	if t.db.dur == nil {
		return t.db.kv.Delete(t.th, key), nil
	}
	ok, err := t.db.dur.LogDelete(key, func() bool { return t.db.kv.Delete(t.th, key) })
	if err != nil {
		return ok, durErr(err)
	}
	t.maybeSnapshot()
	return ok, nil
}

// Scan visits up to max keys >= from in ascending order, stopping early if
// fn returns false, and returns the number visited.
func (t *Thread) Scan(from uint64, max int, fn func(key, val uint64) bool) (int, error) {
	if t.db.closed.Load() {
		return 0, ErrClosed
	}
	return t.db.kv.Scan(t.th, from, max, fn), nil
}

// Range returns an iterator over the key/value pairs in [from, to],
// ascending — the range-over-func form of Scan:
//
//	for k, v := range th.Range(10, 19) { ... }
//
// Pairs are delivered with the same snapshot granularity as Scan (a run of
// a few adjacent leaves read in one transaction, never mid-transaction);
// keys inserted or deleted while ranging may or may not be observed. Iteration stops silently if the DB closes
// mid-range; use Scan to distinguish that case.
func (t *Thread) Range(from, to uint64) iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) {
		const batch = 256
		cur := from
		for cur <= to {
			if t.db.closed.Load() {
				return
			}
			n, last, stopped := 0, uint64(0), false
			t.db.kv.Scan(t.th, cur, batch, func(k, v uint64) bool {
				if k > to {
					stopped = true
					return false
				}
				n, last = n+1, k
				if !yield(k, v) {
					stopped = true
					return false
				}
				return true
			})
			if stopped || n < batch || last == ^uint64(0) {
				return
			}
			cur = last + 1
		}
	}
}

// Stats returns this thread's accumulated statistics (the per-worker
// view; the DB-wide aggregate across all threads is DB.Metrics().Tx).
func (t *Thread) Stats() TxMetrics { return txMetricsOf(&t.th.Stats) }

// txMetricsOf is the public view of one htm.Stats.
func txMetricsOf(h *htm.Stats) TxMetrics {
	m := TxMetrics{
		Attempts:       h.Attempts,
		Commits:        h.Commits,
		Aborts:         h.TotalAborts(),
		Fallbacks:      h.Fallbacks,
		WastedCycles:   h.WastedCycles,
		TxLoads:        h.TxLoads,
		TxStores:       h.TxStores,
		AbortsByReason: map[string]uint64{},
	}
	for r := htm.AbortReason(1); r < htm.NumAbortReasons; r++ {
		if n := h.Aborts[r]; n > 0 {
			m.AbortsByReason[r.String()] = n
		}
	}
	return m
}

// MemoryStats reports the DB's arena footprint.
type MemoryStats struct {
	LiveBytes     int64
	PeakBytes     int64
	ReservedBytes int64 // transient reserved-keys buffers currently live (compaction, split)
	CCMBytes      int64 // conflict control module lines
}

// VirtualResult reports a RunVirtual execution.
type VirtualResult struct {
	// Cycles is the virtual makespan (max per-core clock).
	Cycles uint64
	// Seconds converts Cycles at the modeled 2.3 GHz clock.
	Seconds float64
	// Stats aggregates all worker threads.
	Stats TxMetrics
}

// RunVirtual executes body once per virtual core under the deterministic
// discrete-event scheduler: concurrency and contention play out in
// simulated time even on a single host core, and repeated runs are
// bit-for-bit identical. This is the execution mode of every figure in the
// paper reproduction. It works on every DB without durability; its threads
// are virtual cores, charged through the cost model, while the DB's
// NewThread handles keep running at native speed.
func (db *DB) RunVirtual(threads int, body func(t *Thread)) VirtualResult {
	if db.dur != nil {
		// Durable operations block on real fsyncs while the lockstep
		// simulator waits for every proc to reach its next virtual event —
		// a guaranteed deadlock. Durability is wall-clock only.
		panic("eunomia: RunVirtual is incompatible with Options.Durability")
	}
	sim := vclock.NewSim(threads, 0)
	workers := make([]*Thread, threads)
	sim.Run(func(p *vclock.SimProc) {
		t := &Thread{db: db, th: db.device.NewThread(p, uint64(p.ID())*7919+13)}
		workers[p.ID()] = t
		body(t)
	})
	var merged htm.Stats
	for _, w := range workers {
		merged.Merge(&w.th.Stats)
	}
	cycles := sim.MaxClock()
	return VirtualResult{Cycles: cycles, Seconds: float64(cycles) / vclock.CyclesPerSecond, Stats: txMetricsOf(&merged)}
}
