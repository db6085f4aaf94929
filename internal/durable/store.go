package durable

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/obs"
)

// Config configures a Store.
type Config struct {
	// FS is the filesystem (default OSFS). Tests inject a MemFS.
	FS FS
	// Dir is the directory holding WAL segments and snapshots.
	Dir string
	// Shards is the number of WAL append files (default 8). A key's
	// shard is fixed, so per-key log order equals per-key apply order.
	Shards int
	// SnapshotBytes triggers an automatic snapshot (via the registered
	// scan) once that many WAL bytes have been appended since the last
	// one. 0 disables automatic snapshots; Snapshot can still be called.
	SnapshotBytes int64
	// Observer receives an obs.EvWALFlush event, timed, per flush (group
	// commit or snapshot seal; timestamps in wall nanoseconds). nil
	// disables emission.
	Observer obs.Observer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = OSFS{}
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	return c
}

// Op is a recovered operation handed to the replay callback.
type Op struct {
	Seq      uint64
	Key, Val uint64
	Delete   bool
}

// RecoveryInfo reports what recovery found and how long it took.
type RecoveryInfo struct {
	DurationNs     int64
	SnapshotBase   uint64 // base LSN of the snapshot used (0 = none)
	SnapshotPairs  uint64 // records loaded from the snapshot
	ReplayedFrames uint64 // log frames applied (seq > snapshot base)
	SkippedFrames  uint64 // log frames skipped (already covered)
	TornTails      int    // files truncated at a bad frame
	Segments       int    // segment files read
	MaxSeq         uint64 // highest sequence number seen
}

// Stats is a point-in-time snapshot of the durability layer's behavior:
// the raw group-commit record (flush latencies in wall nanoseconds), so
// snapshots of several stores merge before anything is derived from them.
type Stats struct {
	FlushStats
	// Snapshots.
	Snapshots      uint64
	SnapshotErrors uint64
	// Recovery (from this Store's Open).
	Recovery RecoveryInfo
}

// Merge adds o into s. Recovery durations and counts add; the snapshot
// base and the highest sequence number take the larger.
func (s *Stats) Merge(o *Stats) {
	s.FlushStats.Merge(&o.FlushStats)
	s.Snapshots += o.Snapshots
	s.SnapshotErrors += o.SnapshotErrors
	r, q := &s.Recovery, &o.Recovery
	r.DurationNs += q.DurationNs
	r.SnapshotBase = max(r.SnapshotBase, q.SnapshotBase)
	r.SnapshotPairs += q.SnapshotPairs
	r.ReplayedFrames += q.ReplayedFrames
	r.SkippedFrames += q.SkippedFrames
	r.TornTails += q.TornTails
	r.Segments += q.Segments
	r.MaxSeq = max(r.MaxSeq, q.MaxSeq)
}

// Store is the durability engine: a sharded group-committed WAL plus
// snapshot/truncate/recover machinery. One Store backs one tree.
type Store struct {
	cfg Config
	wal *wal

	seq    atomic.Uint64 // last assigned LSN
	closed atomic.Bool

	snapMu         sync.Mutex // serializes snapshots
	snapshotting   atomic.Bool
	snapID         atomic.Uint64
	bytesSinceSnap atomic.Int64

	snapshots      atomic.Uint64
	snapshotErrors atomic.Uint64

	recovery RecoveryInfo
}

// Open recovers existing state (replaying the newest valid snapshot and
// then every log frame past its base LSN into the apply callback) and
// readies the Store for appends. Replay order per key equals
// acknowledgement order; torn or corrupt tail frames are truncated, never
// applied, and a whole frame of an unknown kind fails Open with an
// *UnknownFrameError instead.
func Open(cfg Config, apply func(Op)) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg}

	start := time.Now()
	info := &st.recovery
	names, err := cfg.FS.List(cfg.Dir)
	if err != nil {
		return nil, err
	}

	// 1. Newest committed snapshot.
	chosen, baseLSN, pairs, maxSnapID, stale := bestSnapshot(cfg, names)
	if chosen != "" {
		info.SnapshotBase = baseLSN
		info.SnapshotPairs = uint64(len(pairs))
		for _, p := range pairs {
			apply(Op{Key: p.key, Val: p.val})
		}
	}
	st.snapID.Store(maxSnapID)

	// 2. Log tail, applied frame by frame as it is read, in walSegments'
	// order, which for every key is the order its writes were acknowledged
	// in (frames of different keys commute).
	//
	// A bad frame truncates the rest of its segment (the tear marks where
	// acknowledged — synced — bytes end), and the truncation is made
	// physical: the segment is rewritten to its valid prefix. That heal is
	// what lets replay continue into later generations — they can only hold
	// frames acknowledged by a run that already recovered past this tear,
	// and without the rewrite a second restart would re-read the tear and
	// silently orphan those acknowledged writes.
	//
	// A frame that is whole but not one a WAL segment of this version holds
	// is no tear: it was synced by whoever wrote it, so Open refuses the
	// log and leaves its bytes as they are.
	maxSeq := baseLSN
	maxGen := 0
	for _, sg := range walSegments(names) {
		maxGen = sg.gen // ascending
		path := join(cfg.Dir, sg.name)
		data, err := readFileAll(cfg.FS, path)
		if err != nil {
			return nil, err
		}
		info.Segments++
		off := 0
		for off < len(data) {
			f, n, ok := decodeFrame(data, off)
			if !ok || (f.op != opPut && f.op != opDel) {
				if p, whole := framePayload(data, off); whole {
					return nil, &UnknownFrameError{File: path, Offset: off, Op: p[0]}
				}
				info.TornTails++
				if err := healSegment(cfg, sg.name, data[:off]); err != nil {
					return nil, err
				}
				break
			}
			off += n
			if f.seq > maxSeq {
				maxSeq = f.seq
			}
			if f.seq <= baseLSN {
				info.SkippedFrames++
				continue
			}
			apply(Op{Seq: f.seq, Key: f.key, Val: f.val, Delete: f.op == opDel})
			info.ReplayedFrames++
		}
	}
	st.seq.Store(maxSeq)
	info.MaxSeq = maxSeq

	// 3. Stale snapshots and orphaned temp files (a crash mid-snapshot or
	// mid-heal) are garbage; old segments stay until the next snapshot
	// truncates them.
	for _, name := range stale {
		cfg.FS.Remove(join(cfg.Dir, name))
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			cfg.FS.Remove(join(cfg.Dir, name))
		}
	}

	// 4. Fresh generation for new appends (never append to a possibly
	// torn file).
	st.wal, err = newWAL(cfg, maxGen+1)
	if err != nil {
		return nil, err
	}
	info.DurationNs = time.Since(start).Nanoseconds()
	return st, nil
}

// segment names a parsed WAL file.
type segment struct {
	name  string
	shard int
	gen   int
}

// walSegments parses wal-<shard>-<gen>.log names into replay order:
// generations ascending, shards within one. A run appends a key to one
// shard only, moves each shard's generation forward, and starts above every
// generation it found, so for any key this is append order — also across
// runs that were opened with different shard counts.
func walSegments(names []string) []segment {
	var out []segment
	for _, name := range names {
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), "-")
		if len(parts) != 2 {
			continue
		}
		sh, err1 := strconv.Atoi(parts[0])
		gen, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, segment{name: name, shard: sh, gen: gen})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].gen != out[j].gen {
			return out[i].gen < out[j].gen
		}
		return out[i].shard < out[j].shard
	})
	return out
}

// healSegment makes a logical truncation physical: the torn segment is
// rewritten as its valid prefix via tmp + fsync + rename + dir fsync, so
// every future Open reads a clean file. The rename is atomic — a crash
// mid-heal leaves either the old torn segment (healed again next time) or
// the truncated one, never a mix.
func healSegment(cfg Config, name string, prefix []byte) error {
	tmp := join(cfg.Dir, name+".tmp")
	f, err := cfg.FS.Create(tmp)
	if err != nil {
		return err
	}
	err = writeAll(f, prefix)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cfg.FS.Remove(tmp)
		return err
	}
	if err := cfg.FS.Rename(tmp, join(cfg.Dir, name)); err != nil {
		cfg.FS.Remove(tmp)
		return err
	}
	return cfg.FS.SyncDir(cfg.Dir)
}

// UnknownFrameError is Open's refusal of a WAL segment that holds a whole,
// checksummed frame of a kind this version does not read — written by
// another version, not torn by a crash. Nothing was truncated.
type UnknownFrameError struct {
	File   string
	Offset int
	Op     byte
}

func (e *UnknownFrameError) Error() string {
	return fmt.Sprintf("durable: %s: intact frame with unknown op %d at offset %d; log left untouched", e.File, e.Op, e.Offset)
}

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("durable: store closed")

// LogPut runs apply (the tree insert) and the WAL append atomically with
// respect to the key's shard, then blocks until the record is durable —
// acknowledged-only-after-flush. apply runs even on a poisoned log (the
// in-memory tree stays usable); the error reports that durability was
// not achieved, and the caller must not acknowledge.
//
// Apply, append and flush take one hold of the shard lock (flushLocked
// releases it around the IO or the wait for a leader).
func (st *Store) LogPut(key, val uint64, apply func()) error {
	if st.closed.Load() {
		return ErrStoreClosed
	}
	s := st.wal.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	apply()
	seq := st.seq.Add(1)
	s.appendLocked(frame{op: opPut, seq: seq, key: key, val: val})
	st.bytesSinceSnap.Add(frameHeaderSize + payloadPut)
	return st.wal.flushLocked(s, seq)
}

// LogDelete is LogPut for deletions. apply reports whether the key was
// present; an absent-key delete mutates nothing and is not logged. Its
// answer is still an observation: the key may be absent only because a
// delete of it is applied and appended but not yet flushed, and a crash
// would bring the key back behind an acknowledged "was not there". So the
// negative answer is released only once every write it can have observed —
// everything appended to the key's shard — is durable; with nothing pending
// that is one comparison.
func (st *Store) LogDelete(key uint64, apply func() bool) (bool, error) {
	if st.closed.Load() {
		return false, ErrStoreClosed
	}
	s := st.wal.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !apply() {
		return false, st.wal.flushLocked(s, s.lastSeq)
	}
	seq := st.seq.Add(1)
	s.appendLocked(frame{op: opDel, seq: seq, key: key})
	st.bytesSinceSnap.Add(frameHeaderSize + payloadDel)
	return true, st.wal.flushLocked(s, seq)
}

// NeedSnapshot reports whether the auto-snapshot threshold has been
// crossed and, if so, atomically claims the snapshot slot: a true return
// obliges the caller to call Snapshot.
func (st *Store) NeedSnapshot() bool {
	if st.cfg.SnapshotBytes <= 0 || st.closed.Load() {
		return false
	}
	if st.bytesSinceSnap.Load() < st.cfg.SnapshotBytes {
		return false
	}
	return st.snapshotting.CompareAndSwap(false, true)
}

// Snapshot captures the tree through scan (which must emit every live
// key/value pair), commits the snapshot, and truncates covered log
// segments. claimed says whether the caller holds the NeedSnapshot claim.
//
// Protocol (the order is what makes crash-anywhere safe):
//  1. rotate shards to fresh segments — every frame in a sealed segment
//     has seq <= the base LSN captured next;
//  2. capture base LSN, scan the tree into snap-<id>.tmp;
//  3. sweep the shard locks, flush everything the scan could have
//     observed (apply and append share the shard lock, so after the
//     sweep any scanned-but-unlogged operation has its seq assigned and
//     a full flush covers it);
//  4. sync + rename the snapshot into place, then fsync the directory —
//     only now is it eligible for recovery;
//  5. delete sealed segments and stale snapshots (pure space reclaim;
//     crashing before this is safe because replay skips seq <= base).
//
// Snapshots are serialized on snapMu. An explicit (unclaimed) call that
// finds one in flight blocks and then takes its own snapshot rather than
// piggybacking: the in-flight snapshot's base LSN was captured earlier,
// so it does not cover operations acknowledged since.
func (st *Store) Snapshot(scan func(emit func(key, val uint64)) error, claimed bool) error {
	if claimed {
		defer st.snapshotting.Store(false)
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	if st.closed.Load() {
		return ErrStoreClosed
	}
	err := st.snapshotLocked(scan)
	if err != nil {
		st.snapshotErrors.Add(1)
	} else {
		st.snapshots.Add(1)
		st.bytesSinceSnap.Store(0)
	}
	return err
}

func (st *Store) snapshotLocked(scan func(emit func(key, val uint64)) error) error {
	sealed, err := st.wal.rotate()
	if err != nil {
		return err
	}
	base := st.seq.Load()
	id := st.snapID.Add(1)
	tmp := join(st.cfg.Dir, snapName(id)+".tmp")
	f, err := st.cfg.FS.Create(tmp)
	if err != nil {
		return err
	}
	w := newSnapshotWriter(f, base, id)
	if err := scan(w.Add); err != nil {
		f.Close()
		st.cfg.FS.Remove(tmp)
		return err
	}
	// Barrier + flush: everything the scan observed is in the log and
	// durable before the snapshot becomes visible to recovery.
	st.wal.sweepLocks()
	if err := st.wal.syncAll(); err != nil {
		f.Close()
		st.cfg.FS.Remove(tmp)
		return err
	}
	if _, err := w.finish(); err != nil {
		f.Close()
		st.cfg.FS.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		st.cfg.FS.Remove(tmp)
		return err
	}
	if err := st.cfg.FS.Rename(tmp, join(st.cfg.Dir, snapName(id))); err != nil {
		st.cfg.FS.Remove(tmp)
		return err
	}
	// The commit rename must be crash-proof before anything it covers is
	// deleted: a power loss that undid the rename but kept the deletions
	// would lose acknowledged data.
	if err := st.cfg.FS.SyncDir(st.cfg.Dir); err != nil {
		return err
	}
	// Truncation: sealed segments are fully covered by the snapshot.
	for _, name := range sealed {
		st.cfg.FS.Remove(join(st.cfg.Dir, name))
	}
	if id > 0 {
		st.cfg.FS.Remove(join(st.cfg.Dir, snapName(id-1)))
	}
	return nil
}

// Sync flushes every shard — the DB.Sync entry point.
func (st *Store) Sync() error {
	if st.closed.Load() {
		return ErrStoreClosed
	}
	return st.wal.syncAll()
}

// Close flushes and closes the log. Idempotent; operations after Close
// fail.
func (st *Store) Close() error {
	if !st.closed.CompareAndSwap(false, true) {
		return nil
	}
	return st.wal.close()
}

// RecoveryInfo returns what this Store's Open recovered.
func (st *Store) RecoveryInfo() RecoveryInfo { return st.recovery }

// DurableLSN returns the highest LSN known to be on disk: the max of the
// WAL shards' flushed watermarks. It is a sound witness even with writers
// running concurrently — unlike the last LSN assigned, it never includes
// an LSN whose frame is still in a pending buffer — so a later recovery
// must always report MaxSeq >= a previously observed DurableLSN.
func (st *Store) DurableLSN() uint64 {
	var max uint64
	for _, s := range st.wal.shards {
		s.mu.Lock()
		if s.flushed > max {
			max = s.flushed
		}
		s.mu.Unlock()
	}
	return max
}

// Stats snapshots the durability counters, merging the shards'.
func (st *Store) Stats() Stats {
	out := Stats{
		Snapshots:      st.snapshots.Load(),
		SnapshotErrors: st.snapshotErrors.Load(),
		Recovery:       st.recovery,
	}
	for _, s := range st.wal.shards {
		s.mu.Lock()
		out.FlushStats.Merge(&s.stats)
		s.mu.Unlock()
	}
	return out
}
