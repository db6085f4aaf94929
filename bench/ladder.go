package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eunomia"
	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/simmem"
)

// The layer-tax ladder replays the first ops of worker 0's key stream,
// single-threaded and one op kind per pass, against a fresh small store
// built at each rung; a layer's self time for a kind is the median at its
// rung minus the median at the rung below. It measures every layer from
// outside, by timing calls into its public functions.

func (c *config) ladderKeys() uint64 {
	if c.quick {
		return 10_000
	}
	return 100_000
}

func (c *config) ladderOps(k opKind) int {
	n := 200_000
	if k == kScan {
		n = 10_000
	}
	if c.quick {
		n /= 100
	}
	return n
}

// traceEvery is the share of spans kept for the trace file.
const traceEvery = 64

// span is one timed op at one rung; spans of one (kind, op index) across
// rungs describe the same op.
type span struct{ start, end int64 }

// target is a store opened at one rung.
type target interface {
	do(kind opKind, key, n uint64)
	// tx returns the cumulative transaction attempts, loads and stores and
	// the keys scans have returned so far.
	tx() (attempts, loads, stores, scanned uint64)
	close() error
}

// handleTarget covers the rungs reached through the public Store API.
type handleTarget struct {
	store   eunomia.Store
	h       eunomia.Handle
	scanned uint64
	scanFn  func(k, v uint64) bool
}

func newHandleTarget(wl *workload, keys uint64, sh storeShape, order []uint64) (*handleTarget, error) {
	st, err := wl.open(keys, sh)
	if err != nil {
		return nil, err
	}
	if err := preload(st.store, order); err != nil {
		return nil, err
	}
	t := &handleTarget{store: st.store, h: st.store.NewHandle()}
	t.scanFn = func(k, v uint64) bool { t.scanned++; return true }
	return t, nil
}

func (t *handleTarget) do(kind opKind, key, n uint64) {
	switch kind {
	case kGet:
		t.h.Get(key)
	case kPut:
		t.h.Put(key, putVal(key, n))
	case kDel:
		t.h.Delete(key)
	case kScan:
		t.h.Scan(key, scanMax, t.scanFn)
	}
}

func (t *handleTarget) tx() (uint64, uint64, uint64, uint64) {
	m := t.store.Metrics().Tx
	return m.Attempts, m.TxLoads, m.TxStores, t.scanned
}

func (t *handleTarget) close() error {
	t.h.Close()
	return t.store.Close()
}

// coreTarget is the Euno-B+Tree called directly with an htm.Thread, built
// the way eunomia.Open builds it on the host backend.
type coreTarget struct {
	tree    *core.Tree
	th      *htm.Thread
	scanned uint64
	scanFn  func(k, v uint64) bool
}

func newCoreTarget(arenaWords uint64, order []uint64) *coreTarget {
	if arenaWords == 0 {
		arenaWords = 1 << 24 // eunomia.Open's default
	}
	dev := htm.New(simmem.NewArena(arenaWords), htm.Config{Backend: htm.BackendHost})
	t := &coreTarget{th: dev.NewHostThread(1, 1)}
	t.tree = core.New(dev, dev.NewHostThread(0, 1), core.DefaultConfig)
	for _, k := range order {
		t.tree.Put(t.th, k, preloadVal(k))
	}
	t.scanFn = func(k, v uint64) bool { t.scanned++; return true }
	return t
}

func (t *coreTarget) do(kind opKind, key, n uint64) {
	switch kind {
	case kGet:
		t.tree.Get(t.th, key)
	case kPut:
		t.tree.Put(t.th, key, putVal(key, n))
	case kDel:
		t.tree.Delete(t.th, key)
	case kScan:
		t.tree.Scan(t.th, key, scanMax, t.scanFn)
	}
}

func (t *coreTarget) tx() (uint64, uint64, uint64, uint64) {
	s := &t.th.Stats
	return s.Attempts, s.TxLoads, s.TxStores, t.scanned
}

func (t *coreTarget) close() error { return nil }

// txShape is the transactional work the core rung reported for one op of
// a kind, rounded to whole transactions and accesses.
type txShape struct{ txs, loads, stores int }

// htmTarget is the raw-transaction rung: per op it runs the same number of
// transactions, Tx.Loads and Tx.Stores that the core rung did for that kind.
// It is sized to cost what the TL2 bookkeeping costs and no more: loads fall
// two to a line, as a tree reads several words of each node it visits, and
// the region stays in cache, as the upper levels of a tree do — with every
// load on a line of its own across a region the size of the tree, the rung
// costs more than the tree op it imitates. The misses an op takes walking
// its own nodes are therefore the core layer's.
type htmTarget struct {
	th     *htm.Thread
	base   simmem.Addr
	lines  uint64
	shapes [numKinds]txShape
	// Set per transaction, read by body (one closure, allocated once).
	first         uint64
	loads, stores int
	body          func(*htm.Tx)
}

func newHTMTarget(shapes [numKinds]txShape) *htmTarget {
	const lines = 1024 // 64 KiB
	arena := simmem.NewArena((lines + 64) * simmem.WordsPerLine)
	dev := htm.New(arena, htm.Config{Backend: htm.BackendHost})
	t := &htmTarget{th: dev.NewHostThread(1, 1), lines: lines, shapes: shapes}
	t.base = arena.AllocAligned(t.th.P, lines*simmem.WordsPerLine, simmem.TagKeys)
	t.body = func(tx *htm.Tx) {
		// An odd stride walks distinct lines until it wraps the region.
		const stride = 7919
		line := t.first
		for i := 0; i < t.loads; i++ {
			tx.Load(t.base + simmem.Addr(line%t.lines*simmem.WordsPerLine) + simmem.Addr(i&1))
			line += stride * uint64(i&1)
		}
		line = t.first
		for i := 0; i < t.stores; i++ {
			tx.Store(t.base+simmem.Addr(line%t.lines*simmem.WordsPerLine), line)
			line += stride
		}
	}
	return t
}

func (t *htmTarget) do(kind opKind, key, n uint64) {
	s := t.shapes[kind]
	for i := 0; i < s.txs; i++ {
		// Loads split evenly over the transactions; stores go in the last,
		// as a tree writes the leaf it ends on.
		t.first = splitmix(key ^ uint64(i)<<48)
		t.loads = (s.loads + i) / s.txs
		t.stores = 0
		if i == s.txs-1 {
			t.stores = s.stores
		}
		t.th.Execute(htm.DefaultPolicy, t.body)
	}
}

func (t *htmTarget) tx() (uint64, uint64, uint64, uint64) {
	s := &t.th.Stats
	return s.Attempts, s.TxLoads, s.TxStores, 0
}

func (t *htmTarget) close() error { return nil }

// pass accumulates what the blocks of one (rung, kind) pass measured.
type pass struct {
	ops                              uint64
	lat                              hist          // ns per op
	wall                             time.Duration // whole blocks, clock reads included
	allocs                           uint64        // heap allocations
	attempts, loads, stores, scanned uint64
	sampled                          []span // every traceEvery-th span
}

func (p *pass) median() float64      { return p.lat.quantile(0.5) }
func (p *pass) per(n uint64) float64 { return float64(n) / float64(p.ops) }

// timedBlock issues kind on keys through tg, timing each op into spans, and
// adds the block to p. first is the op index of keys[0] in the pass.
func timedBlock(tg target, kind opKind, keys []uint64, first int, spans []span, p *pass) {
	var ms0, ms1 runtime.MemStats
	a0, l0, s0, sc0 := tg.tx()
	runtime.ReadMemStats(&ms0)
	offset := int64(p.wall) // the pass's timeline is its blocks end to end
	base := time.Now()
	for i, k := range keys {
		t0 := time.Since(base)
		tg.do(kind, k, uint64(first+i))
		spans[i] = span{int64(t0), int64(time.Since(base))}
	}
	p.wall += time.Since(base)
	runtime.ReadMemStats(&ms1)
	a1, l1, s1, sc1 := tg.tx()

	p.ops += uint64(len(keys))
	p.allocs += ms1.Mallocs - ms0.Mallocs
	p.attempts += a1 - a0
	p.loads += l1 - l0
	p.stores += s1 - s0
	p.scanned += sc1 - sc0
	for i, s := range spans[:len(keys)] {
		p.lat.record(uint64(s.end - s.start))
		if (first+i)%traceEvery == 0 {
			p.sampled = append(p.sampled, span{offset + s.start, offset + s.end})
		}
	}
}

// untimedBlock is timedBlock with span recording off: one clock pair
// around the whole block.
func untimedBlock(tg target, kind opKind, keys []uint64, first int) time.Duration {
	base := time.Now()
	for i, k := range keys {
		tg.do(kind, k, uint64(first+i))
	}
	return time.Since(base)
}

// ladderKinds is the pass order on each store: the kinds that leave it
// unchanged first.
var ladderKinds = [...]opKind{kGet, kScan, kPut, kDel}

// selfPrefix starts the name of the self-time metric a rung adds; the top
// rung's tax is the shard layer's health accounting.
var selfPrefix = [numRungs]string{"htm.", "core.", "db.", "durable.", "cluster.", "shard.health_"}

// ladderBlock is how many ops one rung runs before the next rung takes its
// turn at the same ops. The machine's speed drifts by tens of percent over
// seconds; interleaving the rungs in blocks of a few milliseconds exposes
// them all to the same drift, so their difference survives it.
func ladderBlock(k opKind) int {
	if k == kScan {
		return 64
	}
	return 2048
}

// calibrate runs the first block of each kind against ct, a throwaway core
// tree, and returns the transactional work per op the raw rung must copy.
func calibrate(c *config, ct *coreTarget, tr traffic, keyStream []uint64, spans []span) (shapes [numKinds]txShape) {
	for _, k := range ladderKinds {
		if tr.mix[k] == 0 {
			continue
		}
		var p pass
		timedBlock(ct, k, keyStream[:min(ladderBlock(k), c.ladderOps(k))], 0, spans, &p)
		txs := int(math.Max(1, math.Round(p.per(p.attempts))))
		shapes[k] = txShape{txs, int(math.Round(p.per(p.loads))), int(math.Round(p.per(p.stores)))}
	}
	return shapes
}

func runLadder(wl *workload, c *config, res *result) error {
	keys := c.ladderKeys()
	order := preloadOrder(keys, wl.half)
	tr := wl.traffic
	tr.keys = keys
	tr.owned = false // one replaying thread owns every key
	maxOps := c.ladderOps(kGet)
	keyStream := make([]uint64, maxOps)
	for i, o := range genOps(tr, c.seed, 0, 1, maxOps) {
		keyStream[i] = o.key()
	}
	spans := make([]span, ladderBlock(kGet))

	// One store per rung, all alive at once.
	var targets [numRungs]target
	arenaWords := wl.arenaPerKey * keys // as wl.open sizes the stores above
	targets[rCore] = newCoreTarget(arenaWords, order)
	targets[rHTM] = newHTMTarget(calibrate(c, newCoreTarget(arenaWords, order), tr, keyStream, spans))
	for _, r := range wl.rungs {
		if r <= rCore {
			continue
		}
		sh := storeShape{cluster: r >= rCluster, durable: wl.durable && r >= rDurable, health: r == rShard}
		tg, err := newHandleTarget(wl, keys, sh, order)
		if err != nil {
			return err
		}
		targets[r] = tg
	}

	var passes [numRungs][numKinds]*pass
	restore := make([]uint64, 0, ladderBlock(kDel))
	for _, k := range ladderKinds {
		if tr.mix[k] == 0 {
			continue
		}
		ks := keyStream[:c.ladderOps(k)]
		for _, r := range wl.rungs {
			passes[r][k] = &pass{sampled: make([]span, 0, len(ks)/traceEvery+1)}
		}
		for lo := 0; lo < len(ks); lo += ladderBlock(k) {
			block := ks[lo:min(lo+ladderBlock(k), len(ks))]
			if k == kDel {
				// Put back, untimed, what the block deletes of the preload,
				// so that every block meets the preloaded population and a
				// delete finds a preloaded key. Left alone the pass would
				// empty the hot keys in its first blocks and time the
				// delete of an absent key from then on.
				restore = restore[:0]
				for _, key := range block {
					if !wl.half || member(key) {
						restore = append(restore, key)
					}
				}
			}
			for _, r := range wl.rungs {
				timedBlock(targets[r], k, block, lo, spans, passes[r][k])
				if k == kDel {
					untimedBlock(targets[r], kPut, restore, lo)
				}
			}
		}
	}

	// A quarter of the top rung's first kind once more, each block both with
	// and without span recording. Whichever goes second finds the block's
	// keys in the cache, so the two take turns at going first.
	top := wl.rungs[len(wl.rungs)-1]
	k := firstKind(tr)
	ks := keyStream[:c.ladderOps(k)/4]
	var traced pass
	var plain time.Duration
	for lo, tracedFirst := 0, true; lo < len(ks); lo, tracedFirst = lo+ladderBlock(k), !tracedFirst {
		block := ks[lo:min(lo+ladderBlock(k), len(ks))]
		if tracedFirst {
			timedBlock(targets[top], k, block, lo, spans, &traced)
		}
		plain += untimedBlock(targets[top], k, block, lo)
		if !tracedFirst {
			timedBlock(targets[top], k, block, lo, spans, &traced)
		}
	}
	res.layer["bench.trace_overhead_pct"] = float64(traced.wall-plain) / float64(plain) * 100
	for _, r := range wl.rungs {
		if err := targets[r].close(); err != nil {
			return err
		}
	}

	below := rung(-1)
	for _, r := range wl.rungs {
		var ops, allocs, allocsBelow uint64
		for k, p := range passes[r] {
			if p == nil {
				continue
			}
			if r == rHTM {
				res.layer["htm."+kindNames[k]+"_ns"] = p.median()
				continue
			}
			res.layer[selfPrefix[r]+kindNames[k]+"_self_ns"] = p.median() - passes[below][k].median()
			ops += p.ops
			allocs += p.allocs
			allocsBelow += passes[below][k].allocs
		}
		if r >= rCore && r <= rCluster {
			res.layer[selfPrefix[r]+"allocs_per_op"] = (float64(allocs) - float64(allocsBelow)) / float64(ops)
		}
		below = r
	}
	if p := passes[rCore][kScan]; p != nil {
		res.layer["core.scan_loads_per_key"] = ratio(float64(p.loads), float64(p.scanned))
	}
	if p := passes[rCluster][kScan]; p != nil {
		res.layer["cluster.scan_loads_per_key"] = ratio(float64(p.loads), float64(p.scanned))
	}
	return writeTrace(filepath.Join(c.outDir, "trace-"+wl.name+".json"), wl, &passes)
}

func firstKind(tr traffic) opKind {
	for _, k := range ladderKinds {
		if tr.mix[k] != 0 {
			return k
		}
	}
	panic("workload with an empty mix")
}

// traceEvent is one Chrome trace-format complete event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the sampled spans as a Chrome trace. The rungs ran one
// after another on separate stores, so each op's spans are laid on the top
// rung's timeline: all rungs' spans of one (kind, op index) start together
// and nest by rung order, one track per kind. args keeps the measured
// start and end.
func writeTrace(path string, wl *workload, passes *[numRungs][numKinds]*pass) error {
	top := wl.rungs[len(wl.rungs)-1]
	var events []traceEvent
	for _, k := range ladderKinds {
		if passes[top][k] == nil {
			continue
		}
		for i, at := range passes[top][k].sampled {
			for j := len(wl.rungs) - 1; j >= 0; j-- {
				r := wl.rungs[j]
				s := passes[r][k].sampled[i]
				events = append(events, traceEvent{
					Name: rungNames[r] + "." + kindNames[k], Cat: rungNames[r], Ph: "X",
					Ts: float64(at.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
					Pid: 1, Tid: int(k) + 1,
					Args: map[string]any{"op_index": i * traceEvery, "start_ns": s.start, "end_ns": s.end},
				})
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
