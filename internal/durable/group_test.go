package durable

import (
	"errors"
	"testing"
	"time"
)

func TestGroupFrameRoundtrip(t *testing.T) {
	ops := []groupRec{
		{key: 1, val: 10},
		{key: 2, del: true},
		{key: 3, val: 30},
	}
	buf := appendGroupFrame(nil, 7, ops)
	f, n, ok := decodeFrame(buf, 0)
	if !ok || n != len(buf) {
		t.Fatalf("decode: ok=%v n=%d len=%d", ok, n, len(buf))
	}
	if f.op != opGroup || f.seq != 7 || len(f.group) != 3 {
		t.Fatalf("decoded %+v", f)
	}
	for i, want := range ops {
		if f.group[i] != want {
			t.Fatalf("sub-op %d: got %+v want %+v", i, f.group[i], want)
		}
	}

	// Torn tail: any truncation must fail validation.
	for cut := 1; cut < len(buf); cut++ {
		if _, _, ok := decodeFrame(buf[:cut], 0); ok {
			t.Fatalf("truncated group frame decoded at %d bytes", cut)
		}
	}
	// Bit flip in a sub-op fails the CRC.
	flip := append([]byte(nil), buf...)
	flip[frameHeaderSize+groupFixed+5] ^= 0x40
	if _, _, ok := decodeFrame(flip, 0); ok {
		t.Fatal("bit-flipped group frame decoded")
	}
	// A count disagreeing with the payload length must be rejected even
	// with a recomputed CRC (validPayloadLen + the count check).
	short := appendGroupFrame(nil, 3, ops[:1])
	short[frameHeaderSize+9] = 2 // claims 2 sub-ops, payload holds 1
	if _, _, ok := decodeFrame(short, 0); ok {
		t.Fatal("count-mismatched group frame decoded")
	}
	// A sub-op kind outside {put, del} is invalid.
	badKind := appendGroupFrame(nil, 3, ops[:1])
	badKind[frameHeaderSize+groupFixed] = opSnapHeader
	if _, _, ok := decodeFrame(badKind, 0); ok {
		t.Fatal("bad-kind group frame decoded")
	}
}

// groupCommit applies ops to state and commits them as one batch.
func groupCommit(t *testing.T, st *Store, state *mapState, ops []GroupEntry) {
	t.Helper()
	keys := make([]uint64, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	g, err := st.BeginGroup(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Delete {
			state.del(op.Key)()
		} else {
			state.put(op.Key, op.Val)()
		}
	}
	if err := g.Commit(ops); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitRoundtrip(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 4}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave single ops and combined batches spanning many shards.
	for i := uint64(1); i <= 20; i++ {
		if err := st.LogPut(i, i*10, state.put(i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	groupCommit(t, st, state, []GroupEntry{
		{Key: 1, Val: 111},
		{Key: 2, Delete: true},
		{Key: 100, Val: 1000},
		{Key: 101, Val: 1010},
	})
	groupCommit(t, st, state, []GroupEntry{
		{Key: 100, Delete: true},
		{Key: 3, Val: 333},
	})
	if err := st.LogPut(2, 222, state.put(2, 222)); err != nil {
		t.Fatal(err)
	}
	// LSNs are contiguous: 20 singles + 4 + 2 + 1.
	if got := st.LastLSN(); got != 27 {
		t.Fatalf("LastLSN = %d, want 27", got)
	}
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
	ri := st2.RecoveryInfo()
	if ri.ReplayedFrames != 27 {
		t.Fatalf("replayed %d sub-operations, want 27", ri.ReplayedFrames)
	}
	if ri.MaxSeq != 27 {
		t.Fatalf("MaxSeq = %d, want 27", ri.MaxSeq)
	}
}

// TestGroupRecoveryOrdersAcrossShards targets the reason recovery sorts
// globally by LSN: a group frame lands on the lowest involved shard but
// covers keys homed elsewhere, so per-shard file order is not per-key
// order. A later single-op write to such a key must win over the group's
// earlier sub-operation on every reopen, whichever shard replays first.
func TestGroupRecoveryOrdersAcrossShards(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 4}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	// Find two keys on different shards, kLow homed strictly lower.
	kLow, kHigh := uint64(0), uint64(0)
	for k := uint64(1); k < 100 && kHigh == 0; k++ {
		s := st.wal.shardFor(k)
		switch {
		case kLow == 0:
			kLow = k
		case s.id < st.wal.shardFor(kLow).id:
			kLow = k
		case s.id > st.wal.shardFor(kLow).id:
			kHigh = k
		}
	}
	if kHigh == 0 {
		t.Fatal("no cross-shard key pair found")
	}
	// Group writes kHigh (frame lands on kLow's shard), then a single put
	// overwrites kHigh on its own shard with a higher LSN.
	groupCommit(t, st, state, []GroupEntry{
		{Key: kLow, Val: 1},
		{Key: kHigh, Val: 100},
	})
	if err := st.LogPut(kHigh, 200, state.put(kHigh, 200)); err != nil {
		t.Fatal(err)
	}
	// And the converse hazard: a single put first, then a group delete of
	// the same key recorded on the other shard's file.
	if err := st.LogPut(kLow+1000, 5, state.put(kLow+1000, 5)); err != nil {
		t.Fatal(err)
	}
	want := state.snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// groupSegments iterates a map, so without the LSN sort the replay
	// order across shards would be random; several reopens give the wrong
	// order many chances to appear.
	for i := 0; i < 10; i++ {
		state2 := newMapState()
		st2, err := Open(Config{FS: fs, Dir: "db"}, state2.apply)
		if err != nil {
			t.Fatal(err)
		}
		got := state2.snapshot()
		st2.Close()
		sameMap(t, got, want)
		if got[kHigh] != 200 {
			t.Fatalf("reopen %d: group sub-op replayed after the newer put", i)
		}
	}
}

func TestGroupAbortAndEmptyCommit(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 2}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	g, err := st.BeginGroup([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g.Abort()
	g2, err := st.BeginGroup([]uint64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if st.LastLSN() != 0 {
		t.Fatalf("aborted/empty groups consumed LSNs: %d", st.LastLSN())
	}
	// The shards must be usable again (locks released).
	for i := uint64(1); i <= 5; i++ {
		if err := st.LogPut(i, i, state.put(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.BeginGroup([]uint64{1}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("BeginGroup after close: %v", err)
	}
}

// TestGroupMissedDeletesWaitForObservedWrites is
// TestNegativeDeleteWaitsForObservedWrites for the combined-batch path: a
// batch's delete that misses may have observed a delete still on its way to
// disk, on any of the batch's shards, so neither Abort (every delete missed)
// nor Commit (some did; the group frame goes to the lowest shard only) may
// return before that shard is flushed.
func TestGroupMissedDeletesWaitForObservedWrites(t *testing.T) {
	fs := &gateFS{MemFS: NewMemFS(FaultPlan{}), entered: make(chan struct{}), release: make(chan struct{})}
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 2}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	// low homes on shard 0, where a group frame goes; gone on shard 1.
	var low, gone uint64
	for k := uint64(1); low == 0 || gone == 0; k++ {
		if st.wal.shardFor(k).id == 0 {
			low = k
		} else {
			gone = k
		}
	}
	for name, finish := range map[string]func(g *Group) error{
		"Abort": (*Group).Abort,
		"Commit": func(g *Group) error {
			state.put(low, 1)()
			return g.Commit([]GroupEntry{{Key: low, Val: 1}})
		},
	} {
		if err := st.LogPut(gone, 30, state.put(gone, 30)); err != nil {
			t.Fatal(err)
		}
		fs.armed.Store(true)
		first := make(chan error, 1)
		go func() {
			_, err := st.LogDelete(gone, state.del(gone))
			first <- err
		}()
		<-fs.entered // the delete is applied, appended, and stuck in fsync
		fs.armed.Store(false)
		g, err := st.BeginGroup([]uint64{low, gone})
		if err != nil {
			t.Fatal(err)
		}
		if state.del(gone)() {
			t.Fatalf("%s: the batch's delete found the key the first delete removed", name)
		}
		done := make(chan error, 1)
		go func() { done <- finish(g) }()
		select {
		case err := <-done:
			t.Fatalf("%s returned %v while the delete its missed delete observed was still unflushed", name, err)
		case <-time.After(50 * time.Millisecond):
		}
		fs.release <- struct{}{}
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s = %v", name, err)
		}
	}
	// With nothing pending a batch whose deletes missed waits for nothing.
	g, err := st.BeginGroup([]uint64{low, gone})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupSnapshotInterleave drives batches and snapshots together: a
// snapshot's base LSN must never split a group (the group holds its shard
// locks across apply+append, and rotate takes each lock), so recovery
// after truncation still sees every batch exactly once.
func TestGroupSnapshotInterleave(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 2}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 5; round++ {
		groupCommit(t, st, state, []GroupEntry{
			{Key: round*2 + 1, Val: round + 1},
			{Key: round*2 + 2, Val: round + 1},
			{Key: round * 2, Delete: true},
		})
		if err := st.Snapshot(state.scan, false); err != nil {
			t.Fatal(err)
		}
		groupCommit(t, st, state, []GroupEntry{
			{Key: 500 + round, Val: round},
		})
	}
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
	ri := st2.RecoveryInfo()
	if ri.SnapshotBase == 0 {
		t.Fatal("recovery ignored the snapshots")
	}
}

// TestGroupCrashAtomicity crashes at every IO point while combined
// batches are committing. An acknowledged batch must survive whole;
// an unacknowledged one may be lost whole — a recovered state must be a
// prefix of the batch sequence (batches are single frames, so a torn
// frame drops the entire batch).
func TestGroupCrashAtomicity(t *testing.T) {
	for crashAt := uint64(1); crashAt <= 30; crashAt++ {
		fs := NewMemFS(FaultPlan{CrashAtIO: crashAt, TornSeed: crashAt * 17})
		state := newMapState()
		var ackedBatches int
		st, err := Open(Config{FS: fs, Dir: "db", Shards: 2}, state.apply)
		if err != nil && !fs.Crashed() {
			t.Fatal(err)
		}
		if err == nil {
			for b := uint64(1); b <= 15; b++ {
				keys := []uint64{b * 3, b*3 + 1, b*3 + 2}
				g, err := st.BeginGroup(keys)
				if err != nil {
					break
				}
				ops := make([]GroupEntry, len(keys))
				for i, k := range keys {
					ops[i] = GroupEntry{Key: k, Val: b}
					state.put(k, b)()
				}
				if g.Commit(ops) == nil {
					ackedBatches++
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
		// Count recovered batches and check each is whole.
		recovered := map[uint64]int{}
		for k, v := range got {
			if v < 1 || v > 15 || k < v*3 || k > v*3+2 {
				t.Fatalf("crashAt=%d: impossible entry %d=%d", crashAt, k, v)
			}
			recovered[v]++
		}
		for b, n := range recovered {
			if n != 3 {
				t.Fatalf("crashAt=%d: batch %d recovered partially (%d/3 keys)", crashAt, b, n)
			}
		}
		if len(recovered) < ackedBatches {
			t.Fatalf("crashAt=%d: %d batches acknowledged, only %d recovered",
				crashAt, ackedBatches, len(recovered))
		}
	}
}
