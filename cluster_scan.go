package eunomia

import (
	"errors"
	"fmt"
	"iter"

	"eunomia/internal/shard"
)

// This file is the cluster's cross-shard read path: the per-shard pager and
// cursors, the k-way merge over them, and Range, RangePartial and Scan.

// RangeStat reports how a partial-mode range ended: which shards were
// excluded and why. Pass one to RangePartial; read it after iteration.
type RangeStat struct {
	// Partial is true when at least one shard's slice of the range is
	// missing from the merged stream.
	Partial bool
	// Skipped lists shards whose breaker was already open when the merge
	// started — none of their keys appear.
	Skipped []int
	// Failed lists shards that died mid-scan — their keys appear only up
	// to the failure point.
	Failed []int
	// Err joins the per-shard errors behind Skipped and Failed (each
	// errors.Is-matches ErrShardUnavailable, or ErrClosed if the cluster
	// shut down mid-range).
	Err error
}

// Range returns an iterator over the key/value pairs in [from, to],
// ascending across every shard: the per-shard streams (each globally
// sorted within its shard) are merged into one ordered stream. Keys are
// yielded strictly increasing — each key at most once, from its owning
// shard. Per-key snapshot granularity matches Thread.Range; keys written
// concurrently may or may not be observed. Breaking out of the loop
// releases every per-shard cursor immediately.
//
// Range is strict: if any shard fails — breaker already open, or a disk
// dying mid-scan — iteration stops at the failure rather than silently
// serving a stream with a hole where that shard's keys should be. Use
// RangePartial to keep merging the healthy shards instead, or Scan for
// the error itself.
func (s *Session) Range(from, to uint64) iter.Seq2[uint64, uint64] {
	return s.mergedRange(from, to, nil, true)
}

// RangePartial is Range's explicit partial-result mode: failed shards
// are skipped (Skipped) or abandoned at their failure point (Failed)
// while the healthy shards' merge continues, and stat reports exactly
// what is missing. The caller opts into partiality by calling this —
// plain Range never silently drops a shard.
func (s *Session) RangePartial(from, to uint64, stat *RangeStat) iter.Seq2[uint64, uint64] {
	return s.mergedRange(from, to, stat, false)
}

// kvPair is one buffered key/value pair in a shard cursor page.
type kvPair struct{ k, v uint64 }

// clusterRangeBatch caps a page: no single Thread.Scan the cluster issues
// asks a shard for more raw keys than this.
const clusterRangeBatch = 256

// clusterRangeFirst is the first page of a merged range that carries no
// limit (Range, RangePartial): most callers break out early, and the ones
// that do not reach full pages after four doublings.
const clusterRangeFirst = 16

// clusterShareSlack is what a hash shard's first page holds beyond its even
// share of the keys a merge means to take. A shard's part of the next n
// keys is binomial around n/shards, and a cursor that runs dry before the
// merge is done costs one more Thread.Scan; the slack keeps that to about
// one Scan(from,16) in fifteen on four shards (EXPERIMENTS.md has the
// measured rate).
const clusterShareSlack = 4

// firstPage is each cursor's first page in a merge that means to take first
// keys under view v. A range-partitioned cluster keeps keys in order on one
// shard at a time, so the shard the interval starts on may have to supply
// them all. Hash partitioning deals consecutive keys out evenly, so a shard
// is asked for its share plus clusterShareSlack; a cursor that needs more
// refills through the pager's doubling.
func firstPage(v *shard.View, first int) int {
	if n := v.Shards(); v.Target().Partition() == shard.Hash {
		return min(first, (first+n-1)/n+clusterShareSlack)
	}
	return first
}

// scanPager reads the keys of [from, to] off one shard through Thread.Scan,
// a page of raw keys at a time, re-anchoring each page one past the last
// raw key of the one before. It is the one place that decides how large
// the next page is (double the last, up to clusterRangeBatch) and when the
// interval is exhausted (the shard returned fewer raw keys than the page
// asked for, a key past to, or to itself). Raw means every key the shard
// holds, whatever the page keeps of it: a page that own emptied is not the
// end of the shard.
type scanPager struct {
	from, to uint64
	size     int  // raw keys the next page asks for
	done     bool // the interval is exhausted

	own   *shard.View // if set, page keeps only the keys it routes to shard
	shard int
	page  []kvPair // the kept keys of the page last read

	// One page's bookkeeping, and the Thread.Scan callback that fills it —
	// bound once at construction, so reading a page allocates nothing.
	raw   int
	past  bool
	last  uint64
	onKey func(k, v uint64) bool
}

// init binds the pager's Thread.Scan callback; reset starts an interval.
func (p *scanPager) init() {
	p.onKey = func(k, v uint64) bool {
		if k > p.to {
			p.past = true
			return false
		}
		p.raw++
		p.last = k
		if p.own == nil || p.own.Route(k) == p.shard {
			p.page = append(p.page, kvPair{k, v})
		}
		return true
	}
}

// reset points the pager at [from, to] with a first page of first raw
// keys (clamped to [1, clusterRangeBatch]).
func (p *scanPager) reset(from, to uint64, first int) {
	p.from, p.to, p.done, p.page = from, to, false, p.page[:0]
	p.size = min(max(first, 1), clusterRangeBatch)
}

// next reads one page from th into page; a Thread.Scan error is returned
// as is, with the pager unmoved.
func (p *scanPager) next(th *Thread) error {
	p.page, p.raw, p.past = p.page[:0], 0, false
	if _, err := th.Scan(p.from, p.size, p.onKey); err != nil {
		return err
	}
	if p.raw < p.size || p.past || p.last >= p.to {
		p.done = true
		return nil
	}
	p.from = p.last + 1
	p.size = min(2*p.size, clusterRangeBatch)
	return nil
}

// shardCursor is one shard's input to the k-way merge: a scanPager, the
// page's next pair to hand out, and the error when the shard dies mid-scan.
// While the scan's frozen view is migrating, a key can exist on both its
// source and its destination (copied, not yet purged); the pager keeps it
// only from the shard the frozen view names, so the stream stays
// exactly-once however many cutovers land mid-scan. A stable view has no
// such copies — every move is purged before the view that ends a migration
// is installed — so the pager keeps every key.
type shardCursor struct {
	s     *Session
	pager scanPager
	pos   int
	err   error
}

func newShardCursor(s *Session, i int) *shardCursor {
	cur := &shardCursor{s: s, pager: scanPager{shard: i}}
	cur.pager.init()
	return cur
}

// head reads pages until one holds a pair at pos, and reports whether there
// is one; on false, cur.err tells shard failure from exhaustion. Health is
// re-checked per page, so a shard tripped by concurrent writers is caught
// at the next page boundary.
func (cur *shardCursor) head() bool {
	for cur.pos == len(cur.pager.page) {
		if cur.pager.done || cur.err != nil {
			return false
		}
		cur.pos, cur.pager.page = 0, cur.pager.page[:0]
		th, err := cur.s.shardThread(cur.pager.shard)
		if err != nil {
			cur.err = err
		} else if err := cur.pager.next(th); err != nil {
			cur.err = cur.s.scanFailed(cur.pager.shard, err)
		}
		cur.s.pages++
	}
	return true
}

// scanFailed scores a mid-scan shard failure and wraps it.
func (s *Session) scanFailed(i int, err error) error {
	c := s.c
	if c.closed.Load() {
		return ErrClosed
	}
	return c.shardFailed(c.shard(i), err)
}

// mergedRange is Range and RangePartial's iterator over merge.
func (s *Session) mergedRange(from, to uint64, stat *RangeStat, strict bool) iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) {
		s.merge(from, to, clusterRangeFirst, stat, strict, yield)
	}
}

// merge is the k-way merge behind Range (strict), RangePartial and Scan;
// first is the caller's hint of how many keys it means to take, from which
// firstPage sizes each cursor's first page. The whole merge routes against
// one frozen routing view, registered on the Session (scanFreeze registers
// before the view is trusted, so a concurrent cutover+purge can never slip
// through the registration gap): the migration engine will not purge a
// cut-over interval's source copies — nor retire a merged-away slot —
// while a scan that still routes reads there is running.
//
// The next key is the least in an array of the live cursors' heads. A
// cursor reads on only after yield has said it wants another pair, so a
// consumer that stops causes no further shard read, and cannot be handed a
// failure for keys it never asked for.
func (s *Session) merge(from, to uint64, first int, stat *RangeStat, strict bool, yield func(uint64, uint64) bool) {
	v, outer := s.scanFreeze()
	if outer {
		defer s.scanGen.Store(0)
	}
	var errs []error
	record := func(i int, err error, midScan bool) {
		if stat != nil {
			stat.Partial = true
			if midScan {
				stat.Failed = append(stat.Failed, i)
			} else {
				stat.Skipped = append(stat.Skipped, i)
			}
		}
		errs = append(errs, fmt.Errorf("eunomia: cluster shard %d range: %w", i, err))
	}
	defer func() {
		if stat != nil {
			stat.Err = errors.Join(errs...)
		}
	}()
	// The cursors are the Session's, borrowed for the merge: a scan started
	// from inside yield finds none and builds its own.
	all := s.cursors
	s.cursors = nil
	defer func() { s.cursors = all }()
	for len(all) < v.Shards() {
		all = append(all, newShardCursor(s, len(all)))
	}
	var own *shard.View
	if v.Migrating() {
		own = v
	}
	// heads[i] is live[i]'s next pair; a cursor that runs dry is swapped out.
	var heads [maxClusterShards]kvPair
	var live [maxClusterShards]*shardCursor
	n := 0
	page := firstPage(v, first)
	for i, cur := range all[:v.Shards()] {
		cur.pos, cur.err, cur.pager.own = 0, nil, own
		cur.pager.reset(from, to, page)
		if cur.head() {
			heads[n], live[n] = cur.pager.page[0], cur
			cur.pos, n = 1, n+1
		} else if cur.err != nil {
			record(i, cur.err, false)
			if strict {
				return
			}
		}
	}
	last, have := uint64(0), false
	for n > 0 {
		// Which head is least is a coin toss, so the pick is branch-free.
		j, k, hs := 0, heads[0].k, heads[:n]
		for i := 1; i < len(hs); i++ {
			hk := hs[i].k
			lt := 0
			if hk < k {
				lt = 1
			}
			j += (i - j) * lt
			k = min(k, hk)
		}
		// Shards own disjoint keys, so a duplicate can only be a write that
		// went around the router, or a copy made by a migration begun after
		// the view was frozen; the merge still delivers each key once,
		// strictly increasing.
		if !have || k != last {
			last, have = k, true
			if !yield(k, heads[j].v) {
				return
			}
		}
		if cur := live[j]; cur.pos < len(cur.pager.page) || cur.head() {
			heads[j] = cur.pager.page[cur.pos]
			cur.pos++
			continue
		} else if cur.err != nil {
			record(cur.pager.shard, cur.err, true)
			if strict {
				// Everything past the failure point would have a hole.
				return
			}
		}
		n--
		heads[j], live[j] = heads[n], live[n]
	}
}

// Scan visits up to max keys >= from in ascending order across all
// shards, stopping early if fn returns false, and returns the number
// visited (as on a Thread, the key fn stopped on is not one of them) —
// the callback form of Range. Unlike Range's silent stop, a
// shard failing mid-scan surfaces as an error (wrapping
// ErrShardUnavailable) alongside however many keys were visited first;
// a shard that fails after the last visited key was read does not.
func (s *Session) Scan(from uint64, max int, fn func(key, val uint64) bool) (int, error) {
	if s.c.closed.Load() {
		return 0, ErrClosed
	}
	if max <= 0 {
		return 0, nil
	}
	var stat RangeStat
	n := 0
	s.merge(from, ^uint64(0), max, &stat, false, func(k, v uint64) bool {
		if !fn(k, v) {
			return false
		}
		n++
		return n < max
	})
	return n, stat.Err
}
