package durable

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"eunomia/internal/metrics"
	"eunomia/internal/obs"
)

// ErrWALFailed wraps the first fatal WAL error (failed fsync, write error,
// crash): once a shard's log is poisoned, no later operation on it is
// ever acknowledged.
var ErrWALFailed = errors.New("durable: write-ahead log failed")

// shard is one append log: a mutex serializing apply+append (so the log
// order of a key equals its apply order), a pending group-commit buffer,
// and a flushed-LSN watermark that acknowledgement waits on.
type shard struct {
	id int

	mu       sync.Mutex
	cond     *sync.Cond
	f        File
	gen      int
	pending  []byte // encoded frames not yet written+synced
	spare    []byte // the buffer flushed last, empty: the next pending
	nFrames  int    // frames in pending
	lastSeq  uint64 // seq of the newest appended frame
	flushed  uint64 // seq watermark: everything <= flushed is durable
	flushing bool   // a leader is mid-flush
	err      error  // first fatal error; poisons the shard
	closed   bool
	stats    FlushStats
}

// segmentName is the on-disk name of a WAL segment.
func segmentName(shard, gen int) string {
	return fmt.Sprintf("wal-%03d-%06d.log", shard, gen)
}

// appendLocked encodes a frame into the pending buffer. Caller holds mu.
func (s *shard) appendLocked(f frame) {
	s.pending = appendFrame(s.pending, f)
	s.nFrames++
	s.lastSeq = f.seq
}

// flushLocked runs the leader protocol until everything appended at entry
// is durable (or the shard fails). Caller holds mu; mu is released around
// the file IO and re-held on return. A caller that finds no flush in
// progress becomes the leader and syncs the whole pending batch; one that
// finds a leader at work waits for it.
func (w *wal) flushLocked(s *shard, upto uint64) error {
	for s.flushed < upto {
		if s.err != nil {
			return fmt.Errorf("%w: %v", ErrWALFailed, s.err)
		}
		if s.closed {
			return fmt.Errorf("%w: log closed", ErrWALFailed)
		}
		if s.flushing {
			s.cond.Wait()
			continue
		}
		w.leaderFlush(s)
	}
	return nil
}

// maxSpareBytes bounds the flushed buffer a shard keeps for reuse, so one
// huge batch does not pin its memory for the life of the log.
const maxSpareBytes = 64 << 10

// leaderFlush takes the pending buffer and makes it durable. Caller holds
// mu; the file IO happens with mu released. The buffer flushed last time
// becomes the pending one and this one is kept for the next flush, so the
// steady state appends into two buffers in turn and allocates nothing.
func (w *wal) leaderFlush(s *shard) {
	if s.nFrames == 0 {
		s.flushed = s.lastSeq
		s.cond.Broadcast()
		return
	}
	s.flushing = true
	buf := s.pending
	frames := s.nFrames
	target := s.lastSeq
	timed := w.timed(s)
	s.pending, s.spare = s.spare, nil
	s.nFrames = 0
	f := s.f
	s.mu.Unlock()

	ev, err := w.writeSync(s, f, buf, frames, timed)
	if o := w.cfg.Observer; o != nil && err == nil {
		o.Event(ev)
	}

	s.mu.Lock()
	s.flushing = false
	if cap(buf) <= maxSpareBytes {
		s.spare = buf[:0]
	}
	if err != nil {
		s.err = err
	} else {
		s.flushed = target
		s.stats.add(ev)
	}
	s.cond.Broadcast()
}

// flushSampleEvery is the flush-latency sampling rate, the one host
// threads sample their clock at: two clock reads cost about as much as
// the rest of an in-memory flush.
const flushSampleEvery = 16

// timed reports whether the shard's next flush reads the clock: one in
// flushSampleEvery, or every one while an observer is attached (each
// event carries its own duration). Caller holds mu.
func (w *wal) timed(s *shard) bool {
	return w.cfg.Observer != nil || s.stats.Flushes%flushSampleEvery == 0
}

// writeSync writes buf, frames frames long, to f and syncs it. A timed
// flush reads the monotonic clock around the IO, and the EvWALFlush event
// it returns carries the latency in Dur; an untimed one's TS is 0.
func (w *wal) writeSync(s *shard, f File, buf []byte, frames int, timed bool) (obs.Event, error) {
	var start time.Duration
	if timed {
		start = time.Since(w.epoch)
	}
	err := writeAll(f, buf)
	if err == nil {
		err = f.Sync()
	}
	ev := obs.Event{Kind: obs.EvWALFlush, Proc: int32(s.id), Line: uint64(len(buf)), Node: uint64(frames)}
	if timed { // TS in wall nanoseconds: virtual cycles stop during fsync
		end := time.Since(w.epoch)
		ev.TS = uint64(w.epoch.UnixNano() + int64(end))
		ev.Dur = uint64(end - start)
	}
	return ev, err
}

// writeAll retries short writes (io.ErrShortWrite with partial progress),
// failing on any other error.
func writeAll(f File, buf []byte) error {
	for len(buf) > 0 {
		n, err := f.Write(buf)
		buf = buf[n:]
		if err == io.ErrShortWrite && n > 0 {
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// FlushStats is a group-commit record: one WAL shard's under its mu, or
// any number of them merged. The counts are exact; Lat holds the timed
// flushes only: one in 16 per shard, or every one while an Observer is
// attached.
type FlushStats struct {
	Flushes       uint64
	FlushedFrames uint64
	FlushedBytes  uint64
	MaxBatch      uint64 // largest frames-per-flush batch
	Lat           metrics.Histogram
}

// add counts one successful flush, described by its event.
func (fs *FlushStats) add(ev obs.Event) {
	fs.Flushes++
	fs.FlushedFrames += ev.Node
	fs.FlushedBytes += ev.Line
	fs.MaxBatch = max(fs.MaxBatch, ev.Node)
	if ev.TS != 0 {
		fs.Lat.Observe(ev.Dur)
	}
}

// Merge adds o into fs.
func (fs *FlushStats) Merge(o *FlushStats) {
	fs.Flushes += o.Flushes
	fs.FlushedFrames += o.FlushedFrames
	fs.FlushedBytes += o.FlushedBytes
	fs.MaxBatch = max(fs.MaxBatch, o.MaxBatch)
	fs.Lat.Merge(&o.Lat)
}

// wal is the sharded write-ahead log.
type wal struct {
	cfg    Config
	shards []*shard
	epoch  time.Time // flush latencies are monotonic time since it
}

// newWAL opens (or resumes, after recovery) the shard segment files.
// startGen is the generation to begin appending at.
func newWAL(cfg Config, startGen int) (*wal, error) {
	w := &wal{cfg: cfg, epoch: time.Now()}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{id: i, gen: startGen}
		s.cond = sync.NewCond(&s.mu)
		f, err := cfg.FS.OpenAppend(join(cfg.Dir, segmentName(i, s.gen)))
		if err != nil {
			return nil, err
		}
		s.f = f
		w.shards = append(w.shards, s)
	}
	// Pin the fresh segments' directory entries before anything can be
	// acknowledged into them — a crash must not unlink an fsynced segment.
	if err := cfg.FS.SyncDir(cfg.Dir); err != nil {
		return nil, err
	}
	return w, nil
}

// shardFor maps a key to its shard; same key, same shard, so per-key log
// order is per-shard file order. The product's high half picks it: the low
// bits only permute the key's, so a key stride of 8 would fill one shard.
func (w *wal) shardFor(key uint64) *shard {
	return w.shards[(key*0x9E3779B97F4A7C15>>32)%uint64(len(w.shards))]
}

// rotate seals every shard's current segment (flushing its pending tail)
// and starts a new generation. It returns the sealed generation's names
// for later truncation. Called by the snapshotter.
func (w *wal) rotate() (sealed []string, err error) {
	for _, s := range w.shards {
		s.mu.Lock()
		for s.flushing {
			s.cond.Wait()
		}
		if s.err != nil || s.closed {
			e := s.err
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrWALFailed, e)
		}
		// Seal: write+sync the pending tail while holding mu (brief — the
		// snapshot path is rare), count that flush, then swap files.
		var ev obs.Event
		if s.nFrames > 0 {
			var err error
			if ev, err = w.writeSync(s, s.f, s.pending, s.nFrames, w.timed(s)); err != nil {
				s.err = err
				s.cond.Broadcast()
				s.mu.Unlock()
				return nil, fmt.Errorf("%w: %v", ErrWALFailed, err)
			}
			s.stats.add(ev)
			s.flushed = s.lastSeq
			s.pending = s.pending[:0]
			s.nFrames = 0
		}
		s.f.Close()
		sealed = append(sealed, segmentName(s.id, s.gen))
		s.gen++
		f, ferr := w.cfg.FS.OpenAppend(join(w.cfg.Dir, segmentName(s.id, s.gen)))
		if ferr == nil {
			// The dir fsync must land before this shard's lock is released:
			// once unlocked, a writer can append and acknowledge into the
			// new segment, whose directory entry must by then be
			// crash-proof.
			if ferr = w.cfg.FS.SyncDir(w.cfg.Dir); ferr != nil {
				f.Close()
			}
		}
		if ferr != nil {
			s.err = ferr
			s.cond.Broadcast()
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrWALFailed, ferr)
		}
		s.f = f
		s.cond.Broadcast()
		s.mu.Unlock()
		if o := w.cfg.Observer; o != nil && ev.Node > 0 {
			o.Event(ev) // with no shard lock held, as the leader's
		}
	}
	return sealed, nil
}

// sweepLocks acquires and releases every shard lock in turn. After it
// returns, any operation whose apply was visible to a concurrent tree
// scan has also completed its append (apply and append happen under the
// same shard lock), so a seq captured now bounds everything a snapshot
// scan may have seen.
func (w *wal) sweepLocks() {
	for _, s := range w.shards {
		s.mu.Lock()
		//lint:ignore SA2001 empty critical section is the point: it
		// barriers against in-flight apply+append sections.
		s.mu.Unlock()
	}
}

// syncAll makes everything appended so far durable.
func (w *wal) syncAll() error {
	// Every shard is flushed even when one fails — the healthy shards'
	// acknowledged bytes still deserve to reach disk — and the failures are
	// joined rather than hiding all but the first.
	var errs []error
	for _, s := range w.shards {
		s.mu.Lock()
		err := w.flushLocked(s, s.lastSeq)
		s.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("wal shard %d: %w", s.id, err))
		}
	}
	return errors.Join(errs...)
}

// close flushes and closes every shard. Idempotent.
func (w *wal) close() error {
	var errs []error
	for _, s := range w.shards {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			continue
		}
		err := w.flushLocked(s, s.lastSeq)
		s.closed = true
		if s.f != nil {
			if cerr := s.f.Close(); err == nil {
				err = cerr
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("wal shard %d: %w", s.id, err))
		}
	}
	return errors.Join(errs...)
}
