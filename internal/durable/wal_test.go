package durable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eunomia/internal/obs"
)

// mapState is a trivial "tree" for store tests: a locked map plus the
// recovery apply callback.
type mapState struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func newMapState() *mapState { return &mapState{m: map[uint64]uint64{}} }

func (s *mapState) apply(op Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op.Delete {
		delete(s.m, op.Key)
	} else {
		s.m[op.Key] = op.Val
	}
}

func (s *mapState) put(k, v uint64) func() {
	return func() {
		s.mu.Lock()
		s.m[k] = v
		s.mu.Unlock()
	}
}

func (s *mapState) del(k uint64) func() bool {
	return func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.m[k]; !ok {
			return false
		}
		delete(s.m, k)
		return true
	}
}

func (s *mapState) scan(emit func(k, v uint64)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		emit(k, v)
	}
	return nil
}

func (s *mapState) snapshot() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[uint64]uint64{}
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

func sameMap(t *testing.T, got, want map[uint64]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state size: got %d want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("key %d: got %v,%v want %v", k, gv, ok, v)
		}
	}
}

func TestFrameRoundtrip(t *testing.T) {
	frames := []frame{
		{op: opPut, seq: 1, key: 42, val: 99},
		{op: opDel, seq: 2, key: 42},
		{op: opSnapHeader, seq: 7, key: 3},
		{op: opSnapRecord, key: 1, val: 2},
		{op: opSnapFooter, seq: 7, key: 1},
	}
	var buf []byte
	for _, f := range frames {
		buf = appendFrame(buf, f)
	}
	off := 0
	for i, want := range frames {
		got, n, ok := decodeFrame(buf, off)
		if !ok {
			t.Fatalf("frame %d: decode failed", i)
		}
		if got.op != want.op || got.seq != want.seq || got.key != want.key ||
			got.val != want.val {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}

	// Corruptions must all fail validation.
	good := appendFrame(nil, frame{op: opPut, seq: 9, key: 5, val: 6})
	if _, _, ok := decodeFrame(good[:len(good)-1], 0); ok {
		t.Fatal("truncated frame decoded")
	}
	flip := append([]byte(nil), good...)
	flip[frameHeaderSize+3] ^= 0x10
	if _, _, ok := decodeFrame(flip, 0); ok {
		t.Fatal("bit-flipped frame decoded")
	}
	if _, _, ok := decodeFrame(make([]byte, 64), 0); ok {
		t.Fatal("zeroed region decoded")
	}
	badOp := append([]byte(nil), good...)
	// A wrong op with a recomputed CRC must still be rejected.
	badOp[frameHeaderSize] = 77
	if _, _, ok := decodeFrame(badOp, 0); ok {
		t.Fatal("bad-op frame decoded")
	}
}

func TestStoreRoundtrip(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db"}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := st.LogPut(i, i*10, state.put(i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 100; i += 2 {
		ok, err := st.LogDelete(i, state.del(i))
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Deleting an absent key must not append a frame.
	if ok, err := st.LogDelete(999, state.del(999)); ok || err != nil {
		t.Fatalf("absent delete: ok=%v err=%v", ok, err)
	}
	want := state.snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := st.LogPut(1, 2, func() {}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("put after close: %v", err)
	}

	state2 := newMapState()
	st2, err := Open(Config{FS: fs, Dir: "db"}, state2.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameMap(t, state2.snapshot(), want)
	ri := st2.RecoveryInfo()
	if ri.ReplayedFrames != 150 { // 100 puts + 50 deletes
		t.Fatalf("replayed %d frames, want 150", ri.ReplayedFrames)
	}
	if ri.MaxSeq != 150 {
		t.Fatalf("max seq %d, want 150", ri.MaxSeq)
	}
}

func TestImmediateModeFlushPerOp(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 40
	for i := uint64(0); i < n; i++ {
		if err := st.LogPut(i, i, state.put(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	// A single sequential writer gets no batching: one fsync per op. Only
	// one flush in 16 is timed, but the counts are exact and the sampled
	// latencies still give a percentile.
	if s.Flushes != n || s.FlushedFrames != n {
		t.Fatalf("flushes=%d frames=%d, want %d/%d", s.Flushes, s.FlushedFrames, n, n)
	}
	if s.Lat.Quantile(0.50) == 0 {
		t.Fatalf("flush p50 = 0 after %d flushes", n)
	}
}

// flushRecorder is an Observer that keeps every EvWALFlush.
type flushRecorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *flushRecorder) Event(ev obs.Event) {
	if ev.Kind != obs.EvWALFlush {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// checkFlushEvents requires one event with a duration per counted flush,
// carrying every flushed frame and byte between them.
func checkFlushEvents(t *testing.T, rec *flushRecorder, s Stats) {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if uint64(len(rec.events)) != s.Flushes {
		t.Fatalf("%d EvWALFlush events for %d flushes", len(rec.events), s.Flushes)
	}
	var frames, bytes uint64
	for _, ev := range rec.events {
		if ev.Dur == 0 {
			t.Fatalf("EvWALFlush without a duration: %+v", ev)
		}
		frames += ev.Node
		bytes += ev.Line
	}
	if frames != s.FlushedFrames || bytes != s.FlushedBytes {
		t.Fatalf("events carry %d frames / %d bytes, stats %d / %d", frames, bytes, s.FlushedFrames, s.FlushedBytes)
	}
}

// TestObserverTimesEveryFlush: flush latency is sampled, but with an
// observer attached every flush is timed, because each event carries its
// own duration.
func TestObserverTimesEveryFlush(t *testing.T) {
	rec := &flushRecorder{}
	state := newMapState()
	st, err := Open(Config{FS: NewMemFS(FaultPlan{}), Dir: "db", Shards: 2, Observer: rec}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(w*per + i)
				if err := st.LogPut(k, k, state.put(k, k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.FlushedFrames != workers*per {
		t.Fatalf("FlushedFrames = %d, want %d", s.FlushedFrames, workers*per)
	}
	checkFlushEvents(t, rec, s)
}

// TestRotateCountsSealedTail: a snapshot seals each shard's pending tail
// with a write and a sync of its own; that is a flush and is counted (and
// reported to the observer) like a leader's.
func TestRotateCountsSealedTail(t *testing.T) {
	rec := &flushRecorder{}
	st, err := Open(Config{FS: NewMemFS(FaultPlan{}), Dir: "db", Shards: 2, Observer: rec}, func(Op) {})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Appended and not flushed, as when writers are between append and
	// flush when the snapshot starts.
	s := st.wal.shards[0]
	s.mu.Lock()
	for k := uint64(1); k <= 3; k++ {
		s.appendLocked(frame{op: opPut, seq: st.seq.Add(1), key: k, val: k})
	}
	s.mu.Unlock()
	if err := st.Snapshot(func(func(k, v uint64)) error { return nil }, false); err != nil {
		t.Fatal(err)
	}
	got := st.Stats()
	if got.Flushes != 1 || got.FlushedFrames != 3 || got.FlushedBytes != 3*(frameHeaderSize+payloadPut) {
		t.Fatalf("flushes=%d frames=%d bytes=%d, want 1/3/%d", got.Flushes, got.FlushedFrames, got.FlushedBytes, 3*(frameHeaderSize+payloadPut))
	}
	checkFlushEvents(t, rec, got)
}

func TestConcurrentLeaderGroupCommit(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 2}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(w*per + i)
				if err := st.LogPut(k, k^0xbeef, state.put(k, k^0xbeef)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := state.snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	state2 := newMapState()
	st2, err := Open(Config{FS: fs, Dir: "db"}, state2.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameMap(t, state2.snapshot(), want)
}

// TestWALShardSpreadsStridedKeys: keys a fixed stride apart must still use
// every WAL shard. A pick that keeps only the key's low bits puts a stride
// of 8 (or any multiple of the shard count) into a single shard.
func TestWALShardSpreadsStridedKeys(t *testing.T) {
	const shards, keys = 8, 4096
	w := &wal{}
	index := map[*shard]int{}
	for i := 0; i < shards; i++ {
		s := &shard{id: i}
		w.shards = append(w.shards, s)
		index[s] = i
	}
	for _, stride := range []uint64{1, 8, 64, 4096} {
		var hits [shards]int
		for k := uint64(0); k < keys; k++ {
			hits[index[w.shardFor(k*stride)]]++
		}
		for i, n := range hits {
			if n > 2*keys/shards {
				t.Errorf("stride %d: shard %d took %d of %d keys (fair share %d): %v",
					stride, i, n, keys, keys/shards, hits)
				break
			}
		}
	}
}

func TestShortWritesRetried(t *testing.T) {
	fs := NewMemFS(FaultPlan{ShortWriteEveryN: 3})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := st.LogPut(i, i+7, state.put(i, i+7)); err != nil {
			t.Fatal(err)
		}
	}
	want := state.snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Reboot()
	state2 := newMapState()
	st2, err := Open(Config{FS: fs, Dir: "db"}, state2.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameMap(t, state2.snapshot(), want)
}

func TestFailedFsyncPoisonsShard(t *testing.T) {
	fs := NewMemFS(FaultPlan{FailSyncAtIO: 3}) // Open's dir fsync=1; first put: Write=2, Sync=3
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	err = st.LogPut(1, 1, state.put(1, 1))
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("first put after failed fsync: %v", err)
	}
	// fsyncgate: the shard stays poisoned even though later fsyncs would
	// succeed — the failed batch's durability is unknowable.
	err = st.LogPut(2, 2, state.put(2, 2))
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("second put on poisoned shard: %v", err)
	}
}

func TestCrashLosesOnlyUnacked(t *testing.T) {
	for crashAt := uint64(1); crashAt <= 40; crashAt++ {
		fs := NewMemFS(FaultPlan{CrashAtIO: crashAt, TornSeed: crashAt * 31})
		state := newMapState()
		acked := map[uint64]uint64{}
		st, err := Open(Config{FS: fs, Dir: "db", Shards: 2}, state.apply)
		if err != nil && !fs.Crashed() {
			t.Fatal(err)
		}
		if err == nil {
			// The crash can also fire inside Open (its dir fsync is an IO
			// point); then nothing is acknowledged and recovery must yield
			// an empty store.
			for i := uint64(1); i <= 30; i++ {
				if err := st.LogPut(i, i*3, state.put(i, i*3)); err == nil {
					acked[i] = i * 3
				}
			}
			st.Close()
		}
		if !fs.Crashed() {
			t.Fatalf("crashAt=%d: crash never fired", crashAt)
		}
		fs.Reboot()
		state2 := newMapState()
		st2, err := Open(Config{FS: fs, Dir: "db"}, state2.apply)
		if err != nil {
			t.Fatalf("crashAt=%d: recovery: %v", crashAt, err)
		}
		got := state2.snapshot()
		st2.Close()
		// Every acknowledged write must survive; survivors must have been
		// written (values are a function of the key, so any resurrection
		// with a wrong value would also be caught).
		for k, v := range acked {
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("crashAt=%d: acked write %d=%d lost (got %v,%v)", crashAt, k, v, gv, ok)
			}
		}
		for k, v := range got {
			if k < 1 || k > 30 || v != k*3 {
				t.Fatalf("crashAt=%d: impossible recovered entry %d=%d", crashAt, k, v)
			}
		}
	}
}

// gateFS is a MemFS whose WAL segments, once armed, hold every Sync until
// the test lets it through.
type gateFS struct {
	*MemFS
	armed   atomic.Bool
	entered chan struct{} // a Sync is waiting at the gate
	release chan struct{} // one receive lets one Sync through
}

func (g *gateFS) OpenAppend(name string) (File, error) {
	f, err := g.MemFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestNegativeDeleteWaitsForObservedWrites: a delete that finds its key
// absent has observed whatever removed it. If that was a delete still on
// its way to disk, "was not there" may not be acknowledged before it: a
// crash in between would lose the first delete's record and bring the key
// back behind the second delete's answer.
func TestNegativeDeleteWaitsForObservedWrites(t *testing.T) {
	fs := &gateFS{MemFS: NewMemFS(FaultPlan{}), entered: make(chan struct{}), release: make(chan struct{})}
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogPut(3, 30, state.put(3, 30)); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		ok  bool
		err error
	}
	del := func() chan answer {
		ch := make(chan answer, 1)
		go func() {
			ok, err := st.LogDelete(3, state.del(3))
			ch <- answer{ok, err}
		}()
		return ch
	}
	fs.armed.Store(true)
	first := del()
	<-fs.entered // the first delete is applied, appended, and stuck in fsync
	second := del()
	select {
	case a := <-second:
		t.Fatalf("second delete answered %v, %v while the delete it observed was still unflushed", a.ok, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	fs.armed.Store(false)
	fs.release <- struct{}{}
	if a := <-first; !a.ok || a.err != nil {
		t.Fatalf("first delete = %v, %v; want true, nil", a.ok, a.err)
	}
	if a := <-second; a.ok || a.err != nil {
		t.Fatalf("second delete = %v, %v; want false, nil", a.ok, a.err)
	}
	// With nothing pending a negative delete has nothing to wait for.
	if ok, err := st.LogDelete(3, state.del(3)); ok || err != nil {
		t.Fatalf("third delete = %v, %v; want false, nil", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogPutAllocationFree: with immediate commit every write is its own
// flush, and the frame buffer it flushed is the one the next write appends
// into.
func TestLogPutAllocationFree(t *testing.T) {
	st, err := Open(Config{FS: NewMemFS(FaultPlan{}), Dir: "db"}, func(Op) {})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	apply := func() {}
	key := uint64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		key++
		if err := st.LogPut(key, key, apply); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LogPut allocates %.1f times per call, want 0", allocs)
	}
}
