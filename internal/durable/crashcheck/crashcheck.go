// Package crashcheck is the crash-recovery correctness harness: it runs a
// concurrent write workload against a durable store on fault-injecting
// in-memory filesystems, kills the "machine" at a chosen IO point
// (discarding unsynced bytes, leaving torn tails), recovers into a fresh
// store, and asserts — with the complete linearizability checker from
// internal/check — that the recovered state is consistent with a per-key
// prefix of the history containing every acknowledged operation.
//
// One Scenario drives both stores through eunomia.Store and Handle. A
// single DB (Scenario.Cluster == 0) lives on one disk, and the crash is the
// whole machine dying: a writer's first failed operation ends that writer.
// A Cluster (cluster.go) keeps every shard on its own disk and kills a
// seeded subset of them, so its writers outlive a dead shard.
//
// The history it checks is built from three ingredients:
//
//   - Acknowledged writes, with their real invocation/response windows. An
//     acknowledged write returned from Put/Delete before the crash, which
//     with durability on means it was fsynced; losing one is a
//     linearizability violation (the post-recovery read cannot be ordered
//     after it).
//   - In-flight writes — operations that returned an error because the
//     crash interrupted them. Whether they reached the disk is genuinely
//     unknown (the torn-tail model may preserve them), so their windows
//     are left open past every post-recovery observation: the checker may
//     order them before the recovery reads (they survived) or after (they
//     were lost), both legal.
//   - One post-recovery Get per key in the workload's key universe.
//
// Pre-crash reads are deliberately NOT recorded: a read may observe an
// applied-but-not-yet-flushed write whose acknowledgement the crash then
// swallows. That is correct behavior for a WAL with group commit (reads
// are served from memory), but it would look like a violation if the read
// were replayed against the durable prefix alone.
package crashcheck

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"eunomia"
	"eunomia/internal/check"
	"eunomia/internal/durable"
	"eunomia/internal/shard"
)

// Scenario is one fully-specified crash-recovery run. The zero value of
// any field means its default; String/Parse round-trip it for the
// one-command repro (ReproLine).
type Scenario struct {
	Kind  eunomia.Kind
	Procs int    // concurrent writer goroutines (default 2)
	Ops   int    // operations per writer (default 40)
	Keys  uint64 // key universe size (default 16)
	Seed  uint64 // workload RNG seed

	CrashAtIO uint64 // IO point (of each killed disk's own IO stream) at which it dies (0 = never)
	TornSeed  uint64 // how much unsynced tail survives the crash
	Restarts  int    // post-crash recover→write→restart cycles before checking

	Shards         int // WAL shards per DB
	SnapshotBytes  int64
	AckBeforeFlush bool // the deliberately broken mode the harness must catch

	// Cluster, when non-zero, runs the scenario against a Cluster of that
	// many shards instead of a single DB; the fields below apply only then.
	Cluster int
	Kill    uint64 // bitmask: bit i kills shard i's disk; the bit past the last shard kills the manifest disk (default 1)
	Barrier bool   // writer 0 triggers a cluster Snapshot mid-run (mid-barrier crash coverage)
	// Heal revives the killed disks after phase 1 and requires the
	// cluster's own repair loop — not a process restart — to trip, reopen,
	// replay, and re-admit every wounded shard before the run continues.
	// Acknowledged writes taken through the re-admitted shards join the
	// checked history, so a repair loop that loses data fails the checker.
	Heal bool
	// AdmitBeforeReplay passes the deliberately broken repair mode through
	// to RepairOptions: re-admit with no replay, no watermark check, no
	// probation. A Heal run with this set must FAIL the checker — the
	// mutant proving the probation gate has teeth.
	AdmitBeforeReplay bool
	// Reshard, when non-zero, starts a live Cluster.Reshard to this shard
	// count concurrently with phase 1's writers, so crash points land mid
	// bulk-copy, mid-catch-up, mid-cutover, and inside the migration
	// manifest commit — on source disks, destination disks (the kill mask
	// spans max(Cluster, Reshard) disks), or the root manifest disk. After
	// recovery the migration resumes from the journaled move watermarks.
	Reshard int
	// CutBeforeCatchup passes the deliberately broken migration mode
	// through to ReshardOptions: cutover with no dirty-set drain. A Reshard
	// run with live writers must FAIL the checker under it.
	CutBeforeCatchup bool
}

func (s Scenario) withDefaults() Scenario {
	if s.Procs == 0 {
		s.Procs = 2
	}
	if s.Ops == 0 {
		s.Ops = 40
	}
	if s.Keys == 0 {
		s.Keys = 16
	}
	if s.Cluster != 0 && s.Kill == 0 {
		s.Kill = 1
	}
	return s
}

// fields is the repro token's one table: each field's token name and
// where it lives. String writes them in this order; Parse accepts any.
func (s *Scenario) fields() []field {
	return []field{
		{"kind", &s.Kind}, {"procs", &s.Procs}, {"ops", &s.Ops}, {"keys", &s.Keys}, {"seed", &s.Seed},
		{"crash", &s.CrashAtIO}, {"torn", &s.TornSeed}, {"restarts", &s.Restarts},
		{"shards", &s.Shards}, {"snapbytes", &s.SnapshotBytes}, {"ack", &s.AckBeforeFlush},
		{"cluster", &s.Cluster}, {"kill", &s.Kill}, {"barrier", &s.Barrier}, {"heal", &s.Heal},
		{"mutant", &s.AdmitBeforeReplay}, {"reshard", &s.Reshard}, {"cutmut", &s.CutBeforeCatchup},
	}
}

// field is one Scenario field behind its token name; every kind of field
// the Scenario has travels as an int64.
type field struct {
	name string
	ptr  any
}

func (f field) get() int64 {
	switch v := reflect.ValueOf(f.ptr).Elem(); v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case reflect.Uint64:
		return int64(v.Uint())
	default:
		return v.Int()
	}
}

func (f field) set(n int64) {
	switch v := reflect.ValueOf(f.ptr).Elem(); v.Kind() {
	case reflect.Bool:
		v.SetBool(n != 0)
	case reflect.Uint64:
		v.SetUint(uint64(n))
	default:
		v.SetInt(n)
	}
}

// String encodes the scenario as the repro token.
func (s Scenario) String() string {
	var parts []string
	for _, f := range s.fields() {
		parts = append(parts, fmt.Sprintf("%s=%d", f.name, f.get()))
	}
	return strings.Join(parts, ",")
}

// Parse decodes a Scenario from its String form.
func Parse(tok string) (Scenario, error) {
	var s Scenario
	fields := s.fields()
next:
	for _, kv := range strings.Split(strings.TrimSpace(tok), ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return s, fmt.Errorf("crashcheck: bad field %q", kv)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return s, fmt.Errorf("crashcheck: bad value in %q: %v", kv, err)
		}
		for _, f := range fields {
			if f.name == name {
				f.set(n)
				continue next
			}
		}
		return s, fmt.Errorf("crashcheck: unknown field %q", name)
	}
	return s, nil
}

// ReproLine renders the one-command repro for a failing scenario. The
// token is the same for both stores; a cluster scenario names the cluster
// entry point so CI's cluster lanes can be re-run on their own.
func ReproLine(s Scenario) string {
	env, test := "EUNO_CRASH_REPRO", "TestCrashRepro"
	if s.Cluster != 0 {
		env, test = "EUNO_CLUSTER_CRASH_REPRO", "TestClusterCrashRepro"
	}
	return fmt.Sprintf("%s='%s' go test ./internal/durable/crashcheck -run %s -v", env, s, test)
}

// Result reports one Run.
type Result struct {
	Crashed bool // whether the injected crash actually fired
	Healed  bool // Heal runs: every shard returned to Healthy via repair
	Acked   int  // writes acknowledged before the crash
	Checked int  // operations in the checked history
	// Err is a linearizability violation (acknowledged-write loss,
	// resurrection inconsistent with any prefix) or a recovery failure.
	Err error
}

// run is one scenario's recorded history. Wall timestamps come from one
// shared atomic counter, so rsp(a) < inv(b) is a sound happened-before
// across goroutines.
type run struct {
	s        Scenario
	clock    atomic.Uint64
	mu       sync.Mutex
	acked    []check.Op
	inflight []check.Op // response timestamps patched after recovery
}

// What a writer does with its operations' outcomes.
const (
	// dies is a single DB's phase-1 writer: the first failed operation
	// means the machine is gone, and the writer with it.
	dies = iota
	// survives is a cluster's phase-1 writer: only a shard's disk died, the
	// process is alive, so it moves on and exercises the healthy shards
	// around the dead one. Its absent deletes are never recorded — see ops.
	survives
	// mustAck is a writer on a recovered, healthy store: any error fails
	// the run.
	mustAck
)

// record files one finished write: acknowledged, or (effect unknown — the
// crash may or may not have persisted it) in flight, its window left open
// past recovery.
func (r *run) record(op check.Op, err error) {
	op.Rsp = r.clock.Add(1)
	r.mu.Lock()
	if err == nil {
		r.acked = append(r.acked, op)
	} else {
		r.inflight = append(r.inflight, op)
	}
	r.mu.Unlock()
}

// put issues one recorded Put outside the seeded streams (preload, heal).
func (r *run) put(h eunomia.Handle, proc int, key, val uint64) {
	op := check.Op{Kind: check.Put, Key: key, Val: val, OK: true, Proc: proc, Inv: r.clock.Add(1)}
	r.record(op, h.Put(key, val))
}

// ops is the one op loop: up to n operations (70% puts, 30% deletes) of
// the xorshift stream seeded rng, through h, as proc. before(i), when set,
// runs ahead of operation i and ends the stream by returning false. The
// returned error is a mustAck writer's first failure.
func (r *run) ops(h eunomia.Handle, proc int, rng uint64, n int, mode int, before func(i int) bool) error {
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < n && (before == nil || before(i)); i++ {
		key := next()%r.s.Keys + 1
		// Unique nonzero value per (proc, i): a recovered value that was
		// never written is impossible to fabricate.
		val := uint64(proc)<<40 | uint64(i)<<8 | 0x5
		del := next()%10 < 3
		op := check.Op{Kind: check.Put, Key: key, Val: val, OK: true, Proc: proc, Inv: r.clock.Add(1)}
		var err error
		if del {
			op.Kind, op.Val = check.Delete, 0
			op.OK, err = h.Delete(key)
		} else {
			err = h.Put(key, val)
		}
		switch absent := del && !op.OK; {
		case err != nil && mode == mustAck:
			return err
		case absent && (err != nil || mode == survives):
			// Not recorded. An absent delete that failed observed nothing
			// and wrote nothing. One that succeeded on a cluster is served
			// from volatile memory — with workers outliving a dead shard it
			// can witness an applied-but-unlogged delete that the crash
			// rolls back, the same group-commit volatility that exempts
			// pre-crash reads from recording (see the package comment). This
			// relies on Session.Delete's no-retry-after-half-apply
			// guarantee: present=false means the removal provably did not
			// run, whether err is nil or not. (An early retry design re-ran
			// half-applied deletes, which observed their own removal and
			// came back (false, nil) — this harness caught the resulting
			// unexplainable absent keys.)
		default:
			r.record(op, err)
		}
		if err != nil && mode == dies {
			return nil // this worker's process is dead
		}
	}
	return nil
}

// writers runs phase 1: Procs concurrent writers over st until each is
// done or killed by the crash.
func (r *run) writers(st eunomia.Store, n int, mode int, before func(p, i int) bool) {
	var wg sync.WaitGroup
	for p := 0; p < r.s.Procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := st.NewHandle()
			defer h.Close()
			seed := r.s.Seed*0x9E3779B97F4A7C15 + uint64(p)*0xBF58476D1CE4E5B9 + 1
			r.ops(h, p, seed, n, mode, func(i int) bool { return before == nil || before(p, i) })
		}(p)
	}
	wg.Wait()
}

// recover is every run's tail, entered with the disks rebooted: recover
// through reopen, run the restart cycles, observe the whole key universe,
// and check the history.
func (r *run) recover(res Result, reopen func() (eunomia.Store, error)) Result {
	s := r.s
	st, err := reopen()
	if err != nil {
		res.Err = fmt.Errorf("crashcheck: recovery failed: %w", err)
		return res
	}
	defer func() { st.Close() }()

	// Restart cycles. Each cycle writes acknowledged data on the recovered
	// (healthy) disks, closes cleanly, and recovers again. This is the
	// regression gate for torn-tail healing: the first recovery physically
	// truncated any tear, so writes acknowledged here land in a later
	// generation that the next recovery must replay — a recovery that only
	// logically truncates the tear would re-read it and orphan everything
	// this cycle wrote. On a cluster it holds per shard.
	for cy := 0; cy < s.Restarts; cy++ {
		proc := s.Procs + 1 + cy // distinct proc id and value space per cycle
		h := st.NewHandle()
		err := r.ops(h, proc, s.Seed*0xBF58476D1CE4E5B9+uint64(proc)*0x94D049BB133111EB+1, s.Ops, mustAck, nil)
		h.Close()
		if err != nil {
			res.Err = fmt.Errorf("crashcheck: restart cycle %d write: %w", cy, err)
			return res
		}
		if err := st.Close(); err != nil {
			res.Err = fmt.Errorf("crashcheck: restart cycle %d close: %w", cy, err)
			return res
		}
		if st, err = reopen(); err != nil {
			res.Err = fmt.Errorf("crashcheck: restart cycle %d recovery: %w", cy, err)
			return res
		}
	}

	// Observe the whole key universe, then close the in-flight windows
	// after every observation so the checker may order them on either side.
	ops := r.acked
	h := st.NewHandle()
	defer h.Close()
	for key := uint64(1); key <= s.Keys; key++ {
		inv := r.clock.Add(1)
		v, ok, err := h.Get(key)
		if err != nil {
			res.Err = fmt.Errorf("crashcheck: post-recovery get(%d): %w", key, err)
			return res
		}
		ops = append(ops, check.Op{
			Kind: check.Get, Key: key, Val: v, OK: ok,
			Inv: inv, Rsp: r.clock.Add(1), Proc: s.Procs,
		})
	}
	end := r.clock.Add(1)
	for _, op := range r.inflight {
		op.Rsp = end
		ops = append(ops, op)
	}
	res.Checked = len(ops)
	if err := check.Check(check.History{Ops: ops}); err != nil {
		res.Err = fmt.Errorf("crashcheck: %w\nrepro: %s", err, ReproLine(s))
	}
	return res
}

// Run executes one crash-recovery scenario.
func Run(s Scenario) Result {
	r := &run{s: s.withDefaults()}
	if r.s.Cluster != 0 {
		return r.cluster()
	}
	s = r.s
	fs := durable.NewMemFS(durable.FaultPlan{CrashAtIO: s.CrashAtIO, TornSeed: s.TornSeed})
	open := func() (eunomia.Store, error) {
		db, err := eunomia.Open(eunomia.Options{
			Kind:       s.Kind,
			ArenaWords: 1 << 19,
			Durability: s.durability("crashdb", fs),
		})
		if err != nil {
			return nil, err
		}
		return db, nil
	}
	// A crash can fire inside Open itself (segment creation ends with a
	// directory fsync, an IO point): nothing was acknowledged, so phase 1
	// is skipped and the run goes straight to recovery.
	db, err := open()
	if err != nil && !fs.Crashed() {
		return Result{Err: fmt.Errorf("crashcheck: first open: %w", err)}
	}
	if db != nil {
		r.writers(db, s.Ops, dies, nil)
		db.Close() // errors expected after a crash
	}
	res := Result{Crashed: fs.Crashed(), Acked: len(r.acked)}
	fs.Reboot()
	return r.recover(res, open)
}

// durability is the scenario's Durability over one root disk.
func (s Scenario) durability(dir string, fs durable.FS) eunomia.Durability {
	return eunomia.Durability{
		Dir:            dir,
		FS:             fs,
		Shards:         s.Shards,
		SnapshotBytes:  s.SnapshotBytes,
		AckBeforeFlush: s.AckBeforeFlush,
	}
}

// Sweep runs the scenario once per crash point in [1, points], returning
// how many crashes actually fired and the first failure (nil if none).
// Each point perturbs the torn seed; on a cluster it also draws a seeded
// nonzero kill mask, so the sweep covers single-shard deaths, multi-shard
// deaths, and (with Barrier or Reshard) manifest-disk deaths.
func Sweep(base Scenario, points uint64) (fired int, firstErr error) {
	base = base.withDefaults()
	disks := uint(max(base.Cluster, base.Reshard)) // destination disks are killable too
	if base.Barrier || base.Reshard != 0 {
		disks++ // and so is the manifest disk (barrier and migration manifests)
	}
	for p := uint64(1); p <= points; p++ {
		s := base
		s.CrashAtIO = p
		s.TornSeed = p*2654435761 + base.Seed
		if s.Cluster != 0 {
			s.Kill = shard.Mix(p*0x9E3779B97F4A7C15+base.Seed)%((1<<disks)-1) + 1
		}
		r := Run(s)
		if r.Crashed {
			fired++
		}
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
	}
	return fired, firstErr
}
