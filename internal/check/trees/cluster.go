package checktrees

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/shard"
	"eunomia/internal/simmem"
	"eunomia/internal/tree"
	"eunomia/internal/vclock"
)

// clusterKV puts the sharding layer itself inside the checked surface: it
// is a tree.KV whose keys are routed across N shard trees, each on its own
// arena and HTM device — the same architecture as eunomia.Cluster, built
// from internal packages so the checker sees router + shards as one
// object. A routing bug (the canonical cluster failure mode: a write and a
// later read disagreeing on a key's owner) surfaces to the checker as a
// stale read or lost update, exactly like a tree bug.
//
// Routing goes through the epoched shard.Table, and the reshard variants
// run a live migration in the middle of every checked history: once the
// op counter crosses migrateAfter, each subsequent op advances one move
// (copy src→dst, cut over, purge src) before executing, so the checker
// linearizes operations against every intermediate routing state. The
// flip-before-copy mutant splits a move across two ops — cutover first,
// data copy one op later — opening exactly the window the production
// engine's fence exists to close.
//
// The caller's device h is only a clock source: per-proc threads are
// created lazily on each shard device the first time that proc touches the
// shard. One vclock.Proc drives threads on all N devices; virtual time is
// charged to the proc regardless of which device does the charging, so the
// lockstep schedule stays deterministic.
type clusterKV struct {
	table   *shard.Table
	devices []*htm.HTM
	shards  []tree.KV

	mu      sync.Mutex
	nextIdx int
	threads map[vclock.Proc]*procThreads

	// ops counts routed operations; once it passes rebalanceAfter (when
	// non-zero) the seeded mutant shifts every route by one shard — a
	// "rebalance" that moves ownership without migrating data, so keys
	// written before the shift are unreachable after it.
	ops            atomic.Uint64
	rebalanceAfter uint64

	// target, when non-nil, is the topology the cluster reshards toward
	// once ops crosses migrateAfter. Migration steps hold migMu's write
	// side; routed ops hold the read side, so each step is atomic with
	// respect to the checked history. migMu is a cooperative spin lock —
	// an OS mutex would deadlock the lockstep scheduler, whose only
	// scheduling point is Tick. flipBeforeCopy is the seeded migration
	// mutant: authority flips one op before the data arrives.
	target         *shard.Router
	migrateAfter   uint64
	flipBeforeCopy bool
	migMu          coopRWLock
	migDone        atomic.Bool
	pendingCopy    int // mutant: move cut over but not yet copied (-1 none)
}

// procThreads is one proc's per-shard thread set plus its registration
// index (used to derive distinct deterministic seeds; proc IDs alone would
// collide between the boot WallProc and SimProc 0).
type procThreads struct {
	idx int
	ths []*htm.Thread
}

// newClusterKV builds n shard trees via mkShard, propagating the caller
// device's fault injector so sweep fault variants fire inside the shards.
func newClusterKV(h *htm.HTM, n int, mkShard func(h *htm.HTM, boot *htm.Thread) tree.KV, rebalanceAfter uint64) *clusterKV {
	c := &clusterKV{
		table:          shard.NewTable(shard.New(n, shard.Hash)),
		threads:        map[vclock.Proc]*procThreads{},
		rebalanceAfter: rebalanceAfter,
		pendingCopy:    -1,
	}
	c.grow(h, n, mkShard)
	return c
}

// newReshardClusterKV builds a cluster that starts serving from `from`
// shards and live-migrates to target mid-history. All max(from, target)
// shard slots exist from construction (the checker has no dynamic
// shard-open path); the table simply routes nothing to the destination
// slots until their moves cut over.
func newReshardClusterKV(h *htm.HTM, from int, target shard.Router, mkShard func(h *htm.HTM, boot *htm.Thread) tree.KV, migrateAfter uint64, flipBeforeCopy bool) *clusterKV {
	c := &clusterKV{
		table:          shard.NewTable(shard.New(from, shard.Hash)),
		threads:        map[vclock.Proc]*procThreads{},
		target:         &target,
		migrateAfter:   migrateAfter,
		flipBeforeCopy: flipBeforeCopy,
		pendingCopy:    -1,
	}
	slots := from
	if target.Shards() > slots {
		slots = target.Shards()
	}
	c.grow(h, slots, mkShard)
	return c
}

// grow appends shard slots [len, n) built via mkShard, propagating the
// caller device's fault injector so sweep fault variants fire inside them.
func (c *clusterKV) grow(h *htm.HTM, n int, mkShard func(h *htm.HTM, boot *htm.Thread) tree.KV) {
	for i := len(c.shards); i < n; i++ {
		a := simmem.NewArena(1 << 16)
		dev := htm.New(a, htm.DefaultConfig)
		if fi := h.Injector(); fi != nil {
			dev.SetFaultInjector(fi)
		}
		boot := dev.NewThread(vclock.NewWallProc(0, 0), shard.Mix(uint64(i)+0xb007)|1)
		c.devices = append(c.devices, dev)
		c.shards = append(c.shards, mkShard(dev, boot))
	}
}

// routeAt returns key's owning shard under view v for the op numbered n,
// applying the rebalance mutant once the counter crosses the threshold.
// The counter advances deterministically under the lockstep scheduler.
func (c *clusterKV) routeAt(v *shard.View, key, n uint64) int {
	s := v.Route(key)
	if c.rebalanceAfter != 0 && n > c.rebalanceAfter {
		s = (s + 1) % v.Shards()
	}
	return s
}

// maybeMigrate advances the live migration by one step when op n has
// crossed the trigger. Steps take the write lock, so they are atomic with
// respect to routed ops (which hold the read side): the checker observes
// only pre-step and post-step placements — except under the mutant, which
// deliberately commits a cutover with the copy still pending.
func (c *clusterKV) maybeMigrate(th *htm.Thread, n uint64) {
	if c.target == nil || n < c.migrateAfter || c.migDone.Load() {
		return
	}
	c.migMu.lock(th)
	defer c.migMu.unlock()
	if c.migDone.Load() {
		return
	}
	v := c.table.View()
	if !v.Migrating() {
		v = c.table.BeginReshard(*c.target, 0)
	}
	if c.pendingCopy >= 0 {
		// Mutant second half: the interval flipped an op ago; only now does
		// the data follow (stale src values clobbering any dst writes the
		// window let through — both faces of the bug the checker must see).
		mi := c.pendingCopy
		c.pendingCopy = -1
		c.moveData(th, v, mi)
		c.purgeMoveData(th, v, mi)
		c.finishIfCut()
		return
	}
	mi := v.Cut()
	if mi >= len(v.Moves()) {
		c.finishIfCut()
		return
	}
	if c.flipBeforeCopy {
		c.table.CutOver(mi)
		c.pendingCopy = mi
		return
	}
	// Correct order: data lands on Dst, then authority flips, then the
	// stale src copies go — one atomic step under the write lock, the
	// lockstep analogue of the production engine's fenced cutover.
	c.moveData(th, v, mi)
	c.table.CutOver(mi)
	c.purgeMoveData(th, v, mi)
	c.finishIfCut()
}

// moveData copies every key of move mi from Src to Dst.
func (c *clusterKV) moveData(th *htm.Thread, v *shard.View, mi int) {
	mv := v.Moves()[mi]
	for _, p := range c.collectMove(th, v, mi) {
		c.shards[mv.Dst].Put(c.threadFor(th, mv.Dst), p.k, p.v)
	}
}

// purgeMoveData deletes move mi's keys from Src after cutover.
func (c *clusterKV) purgeMoveData(th *htm.Thread, v *shard.View, mi int) {
	mv := v.Moves()[mi]
	for _, p := range c.collectMove(th, v, mi) {
		c.shards[mv.Src].Delete(c.threadFor(th, mv.Src), p.k)
	}
}

// collectMove scans Src for the keys belonging to move mi.
func (c *clusterKV) collectMove(th *htm.Thread, v *shard.View, mi int) []kvEntry {
	mv := v.Moves()[mi]
	var out []kvEntry
	c.shards[mv.Src].Scan(c.threadFor(th, mv.Src), 0, 1<<30, func(k, val uint64) bool {
		if ami, ok := v.MoveOf(k); ok && ami == mi {
			out = append(out, kvEntry{k, val})
		}
		return true
	})
	return out
}

// finishIfCut completes the migration once every move has cut over and no
// mutant copy is outstanding.
func (c *clusterKV) finishIfCut() {
	cur := c.table.View()
	if cur.Migrating() && cur.Cut() == len(cur.Moves()) && c.pendingCopy < 0 {
		c.table.Finish()
		c.migDone.Store(true)
	}
}

type kvEntry struct{ k, v uint64 }

// migSpinCost is the virtual-time charge of one failed lock iteration,
// mirroring the substrate's SpinIter scale: small enough that a waiter is
// rescheduled promptly, nonzero so the lockstep clock always advances.
const migSpinCost = 16

// coopRWLock is a reader/writer spin lock for code running under the
// lockstep scheduler, where blocking on an OS mutex would deadlock the
// simulation (a blocked proc never reaches Tick, the only scheduling
// point). state is -1 while the writer holds the lock, else the reader
// count. Fairness comes from the scheduler itself: a spinning waiter
// charges virtual time, becomes the laggard proc, and is scheduled ahead
// of the holder until the lock frees — and once a migration is pending,
// every op tries the write side first, so readers drain instead of
// starving the writer.
type coopRWLock struct {
	state atomic.Int64
}

func (l *coopRWLock) rlock(th *htm.Thread) {
	for {
		if s := l.state.Load(); s >= 0 && l.state.CompareAndSwap(s, s+1) {
			return
		}
		th.P.Spin(migSpinCost)
	}
}

func (l *coopRWLock) runlock() { l.state.Add(-1) }

func (l *coopRWLock) lock(th *htm.Thread) {
	for {
		if l.state.CompareAndSwap(0, -1) {
			return
		}
		th.P.Spin(migSpinCost)
	}
}

func (l *coopRWLock) unlock() { l.state.Store(0) }

// threadFor returns th's thread on shard s, creating it on first use with
// a seed derived from (proc registration index, shard).
func (c *clusterKV) threadFor(th *htm.Thread, s int) *htm.Thread {
	c.mu.Lock()
	pt := c.threads[th.P]
	if pt == nil {
		pt = &procThreads{idx: c.nextIdx, ths: make([]*htm.Thread, len(c.shards))}
		c.nextIdx++
		c.threads[th.P] = pt
	}
	t := pt.ths[s]
	if t == nil {
		t = c.devices[s].NewThread(th.P, shard.Mix(uint64(pt.idx)<<8|uint64(s))|1)
		pt.ths[s] = t
	}
	c.mu.Unlock()
	return t
}

func (c *clusterKV) Get(th *htm.Thread, key uint64) (uint64, bool) {
	n := c.ops.Add(1)
	c.maybeMigrate(th, n)
	c.migMu.rlock(th)
	defer c.migMu.runlock()
	s := c.routeAt(c.table.View(), key, n)
	return c.shards[s].Get(c.threadFor(th, s), key)
}

func (c *clusterKV) Put(th *htm.Thread, key, val uint64) {
	n := c.ops.Add(1)
	c.maybeMigrate(th, n)
	c.migMu.rlock(th)
	defer c.migMu.runlock()
	s := c.routeAt(c.table.View(), key, n)
	c.shards[s].Put(c.threadFor(th, s), key, val)
}

func (c *clusterKV) Delete(th *htm.Thread, key uint64) bool {
	n := c.ops.Add(1)
	c.maybeMigrate(th, n)
	c.migMu.rlock(th)
	defer c.migMu.runlock()
	s := c.routeAt(c.table.View(), key, n)
	return c.shards[s].Delete(c.threadFor(th, s), key)
}

// Scan merges the per-shard scans: each shard contributes its first max
// keys >= from, the union is sorted, and the globally smallest max are
// emitted. The whole merge freezes one View and accepts a key from shard s
// only if that View routes it to s — so a key mid-move is counted on
// exactly one shard even if a stale copy lingers on its old owner. The
// recorder's coverage bound (last emitted key when max is hit) stays
// sound: a key k <= last missing from the output would need its shard to
// hold >= max accepted keys below k, all of which sort before k — leaving
// no room for k among the emitted max.
func (c *clusterKV) Scan(th *htm.Thread, from uint64, max int, fn func(key, val uint64) bool) int {
	if max <= 0 {
		return 0
	}
	n := c.ops.Add(1)
	c.maybeMigrate(th, n)
	c.migMu.rlock(th)
	defer c.migMu.runlock()
	v := c.table.View()
	type pair struct{ k, v uint64 }
	var all []pair
	for s := range c.shards {
		c.shards[s].Scan(c.threadFor(th, s), from, max, func(k, val uint64) bool {
			if c.routeAt(v, k, n) == s {
				all = append(all, pair{k, val})
			}
			return true
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	emitted := 0
	for _, p := range all {
		if emitted == max {
			break
		}
		emitted++
		if !fn(p.k, p.v) {
			break
		}
	}
	return emitted
}

func (c *clusterKV) Name() string {
	if c.target != nil {
		return fmt.Sprintf("cluster[%d->%d]/%s", len(c.shards), c.target.Shards(), c.shards[0].Name())
	}
	return fmt.Sprintf("cluster[%d]/%s", len(c.shards), c.shards[0].Name())
}

func init() {
	// euno-cluster: 3 default-geometry Euno shards — the router layered on
	// the production tree config.
	Registry["euno-cluster"] = func(h *htm.HTM, _ *htm.Thread) tree.KV {
		return newClusterKV(h, 3, func(dev *htm.HTM, boot *htm.Thread) tree.KV {
			return core.New(dev, boot, core.DefaultConfig)
		}, 0)
	}
	// euno-cluster-tiny: 4 split-heavy shards, so cluster histories also
	// exercise stitch/CCM/split paths inside every shard.
	Registry["euno-cluster-tiny"] = func(h *htm.HTM, _ *htm.Thread) tree.KV {
		return newClusterKV(h, 4, func(dev *htm.HTM, boot *htm.Thread) tree.KV {
			return core.New(dev, boot, tinyEuno())
		}, 0)
	}
	// euno-cluster-broken: the router mutant — after 24 routed operations a
	// "rebalance" shifts every key's owner by one shard without migrating
	// data. The sweep must reject it.
	Registry["euno-cluster-broken"] = func(h *htm.HTM, _ *htm.Thread) tree.KV {
		return newClusterKV(h, 3, func(dev *htm.HTM, boot *htm.Thread) tree.KV {
			return core.New(dev, boot, tinyEuno())
		}, 24)
	}
	// euno-cluster-reshard: a 3->4 live migration starting 16 ops into
	// every history, one move advanced per op — copy, cutover, purge done
	// atomically with respect to routed ops. Must pass the sweep: the
	// checker linearizes ops against every intermediate routing state.
	Registry["euno-cluster-reshard"] = func(h *htm.HTM, _ *htm.Thread) tree.KV {
		return newReshardClusterKV(h, 3, shard.New(4, shard.Hash), func(dev *htm.HTM, boot *htm.Thread) tree.KV {
			return core.New(dev, boot, tinyEuno())
		}, 16, false)
	}
	// euno-cluster-reshard-broken: the migration mutant — cutover commits
	// one op before the data copy, so the destination serves a hole (stale
	// reads) and the late copy clobbers writes that landed in the window
	// (lost updates). The sweep must reject it.
	Registry["euno-cluster-reshard-broken"] = func(h *htm.HTM, _ *htm.Thread) tree.KV {
		return newReshardClusterKV(h, 3, shard.New(4, shard.Hash), func(dev *htm.HTM, boot *htm.Thread) tree.KV {
			return core.New(dev, boot, tinyEuno())
		}, 16, true)
	}
}
