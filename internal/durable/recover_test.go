package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

// TestSnapshotTruncatesLog checks the snapshot protocol end to end:
// rotate, scan, commit, truncate, and recovery preferring the snapshot.
func TestSnapshotTruncatesLog(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 2}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if err := st.LogPut(i, i, state.put(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(state.scan, false); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List("db")
	var snaps, logs int
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".snap"):
			snaps++
		case strings.HasSuffix(n, ".log"):
			logs++
		}
	}
	if snaps != 1 {
		t.Fatalf("snapshots on disk: %d, want 1 (%v)", snaps, names)
	}
	if logs != 2 { // one fresh segment per shard; sealed generation removed
		t.Fatalf("log segments on disk: %d, want 2 (%v)", logs, names)
	}

	// More writes after the snapshot land in the new generation.
	for i := uint64(51); i <= 60; i++ {
		if err := st.LogPut(i, i, state.put(i, i)); err != nil {
			t.Fatal(err)
		}
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
	if ri.SnapshotBase != 50 || ri.SnapshotPairs != 50 {
		t.Fatalf("recovery used snapshot base=%d pairs=%d, want 50/50", ri.SnapshotBase, ri.SnapshotPairs)
	}
	if ri.ReplayedFrames != 10 {
		t.Fatalf("replayed %d frames, want 10", ri.ReplayedFrames)
	}
}

// TestAutoSnapshotThreshold checks the NeedSnapshot claim protocol.
func TestAutoSnapshotThreshold(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1, SnapshotBytes: 1024}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fired := 0
	for i := uint64(1); i <= 200; i++ {
		if err := st.LogPut(i, i, state.put(i, i)); err != nil {
			t.Fatal(err)
		}
		if st.NeedSnapshot() {
			fired++
			if err := st.Snapshot(state.scan, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fired == 0 {
		t.Fatal("auto-snapshot threshold never fired")
	}
	if got := st.Stats().Snapshots; got != uint64(fired) {
		t.Fatalf("snapshot count %d, want %d", got, fired)
	}
}

// TestUncommittedSnapshotIgnored: a crash between scan and rename leaves a
// .tmp file that recovery must not use.
func TestUncommittedSnapshotIgnored(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := st.LogPut(i, i, state.put(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := state.snapshot()
	st.Close()

	// Fake a crash mid-snapshot: a half-written tmp file on disk.
	fs.SetRawData("db/"+snapName(7)+".tmp", []byte("partial snapshot data"))
	// And a committed-looking snapshot with a corrupt footer.
	bad := appendFrame(nil, frame{op: opSnapHeader, seq: 999, key: 8})
	bad = appendFrame(bad, frame{op: opSnapRecord, key: 77, val: 77})
	bad = appendFrame(bad, frame{op: opSnapFooter, seq: 999, key: 2}) // count lies
	fs.SetRawData("db/"+snapName(8), bad)

	state2 := newMapState()
	st2, err := Open(Config{FS: fs, Dir: "db"}, state2.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameMap(t, state2.snapshot(), want)
	if st2.RecoveryInfo().SnapshotBase != 0 {
		t.Fatal("recovery used an invalid snapshot")
	}
	// The orphaned .tmp must have been swept, not left to collide with a
	// future snapshot id.
	for _, n := range mustList(t, fs, "db") {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("recovery left orphaned temp file %s", n)
		}
	}
}

// mustList is fs.List with the error folded into the test.
func mustList(t *testing.T, fs *MemFS, dir string) []string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// tornCase is one corruption in the torn-write matrix.
type tornCase struct {
	name string
	// mutate corrupts the raw bytes of the single shard's live segment.
	mutate func(data []byte) []byte
	// losesLast reports whether the corruption destroys the last frame.
	losesLast bool
}

var tornMatrix = []tornCase{
	{
		name: "truncated-frame",
		mutate: func(d []byte) []byte {
			return d[:len(d)-5] // last frame loses its final bytes
		},
		losesLast: true,
	},
	{
		name: "bit-flipped-payload",
		mutate: func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)-3] ^= 0x40 // inside the last frame's payload
			return out
		},
		losesLast: true,
	},
	{
		name: "zeroed-tail",
		mutate: func(d []byte) []byte {
			out := append([]byte(nil), d...)
			last := len(out) - (frameHeaderSize + payloadPut)
			for i := last; i < len(out); i++ {
				out[i] = 0
			}
			// Plus a zero-page worth of pre-allocated space past EOF.
			return append(out, make([]byte, 512)...)
		},
		losesLast: true,
	},
	{
		name: "duplicate-last-frame",
		mutate: func(d []byte) []byte {
			last := d[len(d)-(frameHeaderSize+payloadPut):]
			return append(append([]byte(nil), d...), last...)
		},
		losesLast: false, // replay is idempotent; the dup is harmless
	},
}

// TestTornWriteMatrix runs every corruption against both a log-only store
// and one with a committed snapshot under the log tail.
func TestTornWriteMatrix(t *testing.T) {
	for _, withSnap := range []bool{false, true} {
		for _, tc := range tornMatrix {
			name := tc.name + "/log-only"
			if withSnap {
				name = tc.name + "/snapshot"
			}
			t.Run(name, func(t *testing.T) {
				fs := NewMemFS(FaultPlan{})
				state := newMapState()
				// One shard so "the last frame" is well defined.
				st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, state.apply)
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(1); i <= 5; i++ {
					if err := st.LogPut(i, i*100, state.put(i, i*100)); err != nil {
						t.Fatal(err)
					}
				}
				if withSnap {
					if err := st.Snapshot(state.scan, false); err != nil {
						t.Fatal(err)
					}
				}
				for i := uint64(6); i <= 10; i++ {
					if err := st.LogPut(i, i*100, state.put(i, i*100)); err != nil {
						t.Fatal(err)
					}
				}
				full := state.snapshot()
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}

				// Find the live (highest-generation) segment and corrupt it.
				names, _ := fs.List("db")
				segs := walSegments(names)
				if len(segs) == 0 {
					t.Fatalf("no segment found in %v", names)
				}
				seg := segs[len(segs)-1].name
				raw := fs.RawData("db/" + seg)
				if len(raw) == 0 {
					t.Fatalf("segment %s empty", seg)
				}
				fs.SetRawData("db/"+seg, tc.mutate(raw))

				want := full
				if tc.losesLast {
					want = map[uint64]uint64{}
					for k, v := range full {
						want[k] = v
					}
					delete(want, 10) // key 10 was the last frame
				}

				state2 := newMapState()
				st2, err := Open(Config{FS: fs, Dir: "db"}, state2.apply)
				if err != nil {
					t.Fatal(err)
				}
				defer st2.Close()
				sameMap(t, state2.snapshot(), want)
				ri := st2.RecoveryInfo()
				if tc.losesLast && ri.TornTails != 1 {
					t.Fatalf("torn tails %d, want 1", ri.TornTails)
				}
				if withSnap && ri.SnapshotBase == 0 {
					t.Fatal("recovery ignored the committed snapshot")
				}
			})
		}
	}
}

// TestTornSegmentHealedAndLaterGenerationsReplayed encodes the three-run
// sequence from the review: run A crashes leaving a torn tail in its
// generation; run B recovers (physically truncating the tear to its valid
// prefix), acknowledges new writes into the next generation, and closes
// cleanly; run C must recover run B's writes — a recovery that only
// logically truncated the tear would re-read it and orphan them.
func TestTornSegmentHealedAndLaterGenerationsReplayed(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := st.LogPut(i, i, state.put(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// "Run A's crash": tear the tail of generation 1 — key 4's frame loses
	// its last bytes, so only keys 1..3 are recoverable.
	names, _ := fs.List("db")
	seg := walSegments(names)[0].name
	raw := fs.RawData("db/" + seg)
	fs.SetRawData("db/"+seg, raw[:len(raw)-3])
	validPrefix := 3 * (frameHeaderSize + payloadPut)

	// Run B: recovery truncates the tear physically, then acknowledges new
	// writes into generation 2 and shuts down cleanly.
	stateB := newMapState()
	stB, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, stateB.apply)
	if err != nil {
		t.Fatal(err)
	}
	if ri := stB.RecoveryInfo(); ri.TornTails != 1 {
		t.Fatalf("run B torn tails %d, want 1", ri.TornTails)
	}
	if healed := fs.RawData("db/" + seg); len(healed) != validPrefix {
		t.Fatalf("torn segment not physically truncated: %d bytes on disk, want %d", len(healed), validPrefix)
	}
	for i := uint64(5); i <= 8; i++ {
		if err := stB.LogPut(i, i, stateB.put(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}

	// Run C: the tear is gone, and run B's acknowledged writes survive.
	stateC := newMapState()
	stC, err := Open(Config{FS: fs, Dir: "db"}, stateC.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer stC.Close()
	sameMap(t, stateC.snapshot(), map[uint64]uint64{1: 1, 2: 2, 3: 3, 5: 5, 6: 6, 7: 7, 8: 8})
	if ri := stC.RecoveryInfo(); ri.TornTails != 0 {
		t.Fatalf("run C re-read a tear run B should have healed: %+v", ri)
	}
}

// rawFrame frames an arbitrary payload the way appendFrame would: length
// word, CRC32C, payload.
func rawFrame(payload []byte) []byte {
	out := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// TestUnknownFrameRefusedNotHealed: a whole, checksummed frame of a kind
// this version does not read is not a torn tail. Healing it away would
// truncate the acknowledged writes behind it, so Open must fail with the
// file and offset and leave the segment byte for byte as it found it.
func TestUnknownFrameRefusedNotHealed(t *testing.T) {
	// The group record the CCM v2 layer logged (op 6, one put of key 7).
	group := make([]byte, 13+17)
	group[0] = 6
	binary.LittleEndian.PutUint64(group[1:], 4)
	binary.LittleEndian.PutUint32(group[9:], 1)
	group[13] = opPut
	binary.LittleEndian.PutUint64(group[14:], 7)
	binary.LittleEndian.PutUint64(group[22:], 70)
	foreign := map[string][]byte{
		"unknown-op":       appendFrame(nil, frame{op: 77, seq: 4, key: 7}),
		"old-group-record": rawFrame(group),
		"snapshot-op":      appendFrame(nil, frame{op: opSnapRecord, key: 7, val: 70}),
	}
	for name, alien := range foreign {
		t.Run(name, func(t *testing.T) {
			fs := NewMemFS(FaultPlan{})
			var seg []byte
			for i := uint64(1); i <= 3; i++ {
				seg = appendFrame(seg, frame{op: opPut, seq: i, key: i, val: i})
			}
			at := len(seg)
			seg = append(seg, alien...)
			for i := uint64(5); i <= 6; i++ {
				seg = appendFrame(seg, frame{op: opPut, seq: i, key: i, val: i})
			}
			file := join("db", segmentName(0, 1))
			fs.SetRawData(file, seg)

			st, err := Open(Config{FS: fs, Dir: "db", Shards: 1}, newMapState().apply)
			var ufe *UnknownFrameError
			if !errors.As(err, &ufe) {
				if st != nil {
					st.Close()
				}
				t.Fatalf("Open = %v, want an *UnknownFrameError", err)
			}
			if ufe.File != file || ufe.Offset != at || ufe.Op != alien[frameHeaderSize] {
				t.Fatalf("error names %s offset %d op %d, want %s offset %d op %d",
					ufe.File, ufe.Offset, ufe.Op, file, at, alien[frameHeaderSize])
			}
			if !strings.Contains(err.Error(), file) {
				t.Fatalf("message %q does not name the file", err)
			}
			if got := fs.RawData(file); !bytes.Equal(got, seg) {
				t.Fatalf("segment rewritten: %d bytes on disk, %d before Open", len(got), len(seg))
			}
		})
	}
}

// TestReplayOrderAcrossShardCounts: a key's frames share a shard only
// within one run. Reopened with another shard count the key moves, and
// replay must still end on the later run's write — generations, not shard
// numbers, order the segments.
func TestReplayOrderAcrossShardCounts(t *testing.T) {
	for _, counts := range [][2]int{{8, 1}, {1, 8}} {
		fs := NewMemFS(FaultPlan{})
		want := map[uint64]uint64{}
		for run, shards := range counts {
			state := newMapState()
			st, err := Open(Config{FS: fs, Dir: "db", Shards: shards}, state.apply)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 16; k++ {
				v := k*10 + uint64(run)
				if err := st.LogPut(k, v, state.put(k, v)); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		state := newMapState()
		st, err := Open(Config{FS: fs, Dir: "db", Shards: counts[1]}, state.apply)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		sameMap(t, state.snapshot(), want)
	}
}

// TestExplicitSnapshotNotSkipped: an explicit Snapshot call that finds an
// automatic one in flight must block and then take its own snapshot — the
// in-flight one's base LSN predates the call, so returning early would
// leave operations acknowledged since then uncovered.
func TestExplicitSnapshotNotSkipped(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	state := newMapState()
	st, err := Open(Config{FS: fs, Dir: "db", Shards: 1, SnapshotBytes: 1}, state.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LogPut(1, 1, state.put(1, 1)); err != nil {
		t.Fatal(err)
	}
	if !st.NeedSnapshot() {
		t.Fatal("auto-snapshot threshold did not fire")
	}

	// Park the claimed (automatic) snapshot inside its scan, after it has
	// captured its base LSN.
	started := make(chan struct{})
	release := make(chan struct{})
	autoDone := make(chan error, 1)
	go func() {
		autoDone <- st.Snapshot(func(emit func(k, v uint64)) error {
			close(started)
			<-release
			return state.scan(emit)
		}, true)
	}()
	<-started

	// Acknowledge a write the parked snapshot cannot cover, then call
	// Snapshot explicitly.
	if err := st.LogPut(2, 2, state.put(2, 2)); err != nil {
		t.Fatal(err)
	}
	exDone := make(chan error, 1)
	go func() { exDone <- st.Snapshot(state.scan, false) }()
	select {
	case err := <-exDone:
		t.Fatalf("explicit Snapshot returned (%v) while another was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-autoDone; err != nil {
		t.Fatal(err)
	}
	if err := <-exDone; err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Snapshots; got != 2 {
		t.Fatalf("snapshots taken: %d, want 2", got)
	}
	// The newest snapshot must cover both acknowledged writes.
	names, _ := fs.List("db")
	_, base, pairs, _, _ := bestSnapshot(Config{FS: fs, Dir: "db"}, names)
	if base != 2 || len(pairs) != 2 {
		t.Fatalf("newest snapshot base=%d pairs=%d, want 2/2", base, len(pairs))
	}
}
