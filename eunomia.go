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
// clock (wall time for a goroutine, a virtual core under RunVirtual),
// statistics and RNG.
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
	"sync"
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

// Backend selects the execution engine behind a DB. Both run the same
// transactional protocol over the same arena metadata; they differ in what
// the clock means (see internal/htm.Backend and DESIGN.md §10).
type Backend int

// The two execution engines.
const (
	// Emulated (the default) charges every access through the virtual-time
	// cost model, so contention behaves like the paper's hardware and
	// RunVirtual is deterministic. Threads from NewThread work too: they
	// run on real goroutines, yield in their wait loops like Host threads,
	// and their speed measures the emulator, not the protocol.
	Emulated Backend = iota
	// Host disables the cost model and runs the protocol at native speed:
	// Threads are meant to be one-per-goroutine, throughput scales with
	// real cores, and time is wall-clock. RunVirtual is unavailable.
	Host
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case Emulated:
		return "emulated"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Options configures Open.
type Options struct {
	// Kind selects the tree implementation (default EunoBTree).
	Kind Kind
	// ArenaWords is the memory capacity in 8-byte words (default 1<<24,
	// i.e. 128 MiB).
	ArenaWords uint64
	// Backend selects the execution engine (default Emulated). Host runs
	// the same protocol on real goroutines at native speed — use it for
	// actual-throughput work; use the default for paper-comparable,
	// deterministic virtual-time numbers.
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

	// Proc ids for NewThread: nextID is the next never-used id, freeIDs
	// the ids closed Threads handed back (taken first).
	idMu    sync.Mutex
	nextID  int
	freeIDs []int
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
	switch opts.Backend {
	case Emulated:
	case Host:
		hcfg.Backend = htm.BackendHost
	default:
		return nil, fmt.Errorf("eunomia: unknown backend %v", opts.Backend)
	}
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
	db.nextID = 2 // proc 0 was the boot thread; 1 is left unused, as it always was
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
	id int // proc id Close hands back to the DB; 0 once closed, and for RunVirtual's threads
}

// NewThread creates a worker handle for one goroutine, on either backend;
// on Host it runs at native speed. Close the handle when its worker ends:
// the emulated backend models one private cache per handle and has room
// for at most 254 live handles — NewThread panics when asked for a 255th —
// while any number may be created and closed over the DB's life (a closed
// handle's id is reused). The Host backend has no such limit.
func (db *DB) NewThread() *Thread {
	db.idMu.Lock()
	var id int
	if n := len(db.freeIDs); n > 0 {
		id, db.freeIDs = db.freeIDs[n-1], db.freeIDs[:n-1]
	} else {
		id = db.nextID
		db.nextID++
	}
	db.idMu.Unlock()
	if db.opts.Backend == Emulated && id >= simmem.MaxProcs {
		panic(fmt.Sprintf("eunomia: more than %d live handles on the emulated backend; Close the ones that are done", simmem.MaxProcs-2))
	}
	return &Thread{db: db, id: id, th: db.device.NewHostThread(id, uint64(id)*0x9e3779b9+1)}
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

// Stats is a snapshot of a thread's transactional behavior.
type Stats struct {
	Commits      uint64
	Aborts       uint64
	Fallbacks    uint64
	WastedCycles uint64
	// AbortsByReason maps reason names ("conflict-true", "conflict-false",
	// "conflict-meta", "capacity", "explicit", "fallback-lock") to counts.
	AbortsByReason map[string]uint64
}

// Stats returns this thread's accumulated statistics (the per-worker
// view; the DB-wide aggregate across all threads is DB.Metrics().Tx).
func (t *Thread) Stats() Stats { return statsOf(&t.th.Stats) }

// statsOf is the public view of one htm.Stats.
func statsOf(h *htm.Stats) Stats {
	s := Stats{
		Commits:        h.Commits,
		Aborts:         h.TotalAborts(),
		Fallbacks:      h.Fallbacks,
		WastedCycles:   h.WastedCycles,
		AbortsByReason: map[string]uint64{},
	}
	for r := htm.AbortReason(1); r < htm.NumAbortReasons; r++ {
		if n := h.Aborts[r]; n > 0 {
			s.AbortsByReason[r.String()] = n
		}
	}
	return s
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
	Stats Stats
}

// RunVirtual executes body once per virtual core under the deterministic
// discrete-event scheduler: concurrency and contention play out in
// simulated time even on a single host core, and repeated runs are
// bit-for-bit identical. This is the execution mode of every figure in the
// paper reproduction.
func (db *DB) RunVirtual(threads int, body func(t *Thread)) VirtualResult {
	if db.dur != nil {
		// Durable operations block on real fsyncs while the lockstep
		// simulator waits for every proc to reach its next virtual event —
		// a guaranteed deadlock. Durability is wall-clock only.
		panic("eunomia: RunVirtual is incompatible with Options.Durability")
	}
	if db.opts.Backend == Host {
		// The host backend has no cost model, so "virtual cycles" would be
		// meaningless; determinism is the emulated backend's whole point.
		panic("eunomia: RunVirtual requires Options.Backend == Emulated")
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
	return VirtualResult{Cycles: cycles, Seconds: float64(cycles) / vclock.CyclesPerSecond, Stats: statsOf(&merged)}
}
