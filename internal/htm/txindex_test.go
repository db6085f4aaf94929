package htm

// Adversarial tests for the O(1) per-Tx line index (txindex.go) and the
// store buffer it indexes: they drive the table through growth,
// coalescing, capacity edges, and cross-attempt reuse, checking against
// brute-force references computed independently of the indexed paths.

import (
	"math/bits"
	"testing"

	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// TestReadYourWritesManyStores buffers stores to far more than 64 distinct
// lines (forcing the line index through several growth doublings),
// interleaved with repeated stores to the same addresses, and checks that
// every read-your-writes Load returns the latest buffered value and that
// commit applies last-write-wins. One more line, pre-filled with nonzero
// words, has only its even words stored: a Load of an odd word must read
// memory, not the line's buffer, and commit must leave the odd words as
// they were.
func TestReadYourWritesManyStores(t *testing.T) {
	const nLines = 100 // 800 words: > 64 distinct addresses per pass
	const stored = 0b01010101
	h, a := newDevice(1 << 16)
	p := vclock.NewWallProc(0, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, nLines*simmem.WordsPerLine, simmem.TagKeys)
	part := a.AllocAligned(p, simmem.WordsPerLine, simmem.TagKeys)

	want := make(map[simmem.Addr]uint64)
	for w := simmem.Addr(0); w < simmem.WordsPerLine; w++ {
		a.SetWordRaw(part+w, 500+uint64(w))
		want[part+w] = 500 + uint64(w)
	}
	ok, reason := th.Run(func(tx *Tx) {
		// The partial line's odd words, read right after a store to the
		// line and again once other lines were stored.
		checkPart := func(when string) {
			for w := simmem.Addr(1); w < simmem.WordsPerLine; w += 2 {
				if got := tx.Load(part + w); got != want[part+w] {
					t.Fatalf("%s: Load of unstored word %d = %d, want memory's %d", when, w, got, want[part+w])
				}
			}
		}
		for w := simmem.Addr(0); w < simmem.WordsPerLine; w += 2 {
			tx.Store(part+w, 900+uint64(w))
			want[part+w] = 900 + uint64(w)
		}
		checkPart("after its stores")
		// Three passes over every word of every line, each overwriting the
		// previous value; between passes, spot-check reads.
		for pass := uint64(1); pass <= 3; pass++ {
			for w := 0; w < nLines*simmem.WordsPerLine; w++ {
				addr := base + simmem.Addr(w)
				v := pass*10_000 + uint64(w)
				tx.Store(addr, v)
				want[addr] = v
			}
			for w := 0; w < nLines*simmem.WordsPerLine; w += 7 {
				addr := base + simmem.Addr(w)
				if got := tx.Load(addr); got != want[addr] {
					t.Fatalf("pass %d: Load(%d) = %d, want %d", pass, addr, got, want[addr])
				}
			}
		}
		checkPart("after other lines' stores")
		// The store buffer must have coalesced: one write line per line,
		// with a full mask for the lines stored whole.
		if len(tx.wls) != nLines+1 {
			t.Fatalf("store buffer has %d write lines, want %d (coalescing broken)", len(tx.wls), nLines+1)
		}
		for _, wl := range tx.wls {
			full := uint8(0xff)
			if wl.line == part.Line() {
				full = stored
			}
			if wl.mask != full {
				t.Fatalf("write line %d has mask %08b, want %08b", wl.line, wl.mask, full)
			}
		}
		if want := nLines*simmem.WordsPerLine + bits.OnesCount8(stored); len(tx.order) != want {
			t.Fatalf("write-back order lists %d words, want %d, each stored word once", len(tx.order), want)
		}
	})
	if !ok {
		t.Fatalf("commit failed: %v", reason)
	}
	for addr, v := range want {
		if got := a.WordRaw(addr); got != v {
			t.Fatalf("after commit word %d = %d, want %d", addr, got, v)
		}
	}
}

// TestStoreBufferIndexResetAcrossAttempts aborts an attempt with a large
// store buffer, then checks that the next attempt does not serve stale
// read-your-writes hits from the previous attempt's index.
func TestStoreBufferIndexResetAcrossAttempts(t *testing.T) {
	h, a := newDevice(1 << 16)
	p := vclock.NewWallProc(0, 0)
	th := h.NewThread(p, 1)
	x := a.AllocAligned(p, 80*simmem.WordsPerLine, simmem.TagKeys)

	ok, reason := th.Run(func(tx *Tx) {
		for i := 0; i < 80; i++ {
			tx.Store(x+simmem.Addr(i*simmem.WordsPerLine), 99)
		}
		tx.Abort(1)
	})
	if ok || reason != AbortExplicit {
		t.Fatalf("expected explicit abort, got ok=%v reason=%v", ok, reason)
	}
	ok, reason = th.Run(func(tx *Tx) {
		for i := 0; i < 80; i++ {
			if got := tx.Load(x + simmem.Addr(i*simmem.WordsPerLine)); got != 0 {
				t.Fatalf("stale store-buffer hit after abort: word %d = %d", i, got)
			}
		}
	})
	if !ok {
		t.Fatalf("second attempt failed: %v", reason)
	}
}

// TestReadSetCapacityExact checks the capacity abort fires exactly when the
// read set would exceed MaxReadLines — and that re-reading lines already in
// the read set never counts against capacity.
func TestReadSetCapacityExact(t *testing.T) {
	const maxLines = 8
	a := simmem.NewArena(1 << 14)
	h := New(a, Config{MaxReadLines: maxLines, MaxWriteLines: maxLines})
	p := vclock.NewWallProc(0, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, (maxLines+2)*simmem.WordsPerLine, simmem.TagKeys)

	// The fallback-lock subscription in Run occupies one read-set line, so
	// the body may read maxLines-1 distinct new lines.
	ok, reason := th.Run(func(tx *Tx) {
		for i := 0; i < maxLines-1; i++ {
			tx.Load(base + simmem.Addr(i*simmem.WordsPerLine))
		}
		if len(tx.rs) != maxLines {
			t.Fatalf("read set has %d lines, want %d", len(tx.rs), maxLines)
		}
		// Re-reading every line (other words included) must not abort.
		for i := 0; i < maxLines-1; i++ {
			tx.Load(base + simmem.Addr(i*simmem.WordsPerLine+3))
		}
		if len(tx.rs) != maxLines {
			t.Fatalf("re-reads grew the read set to %d lines", len(tx.rs))
		}
	})
	if !ok {
		t.Fatalf("at-capacity transaction aborted: %v", reason)
	}

	// One more distinct line is one too many.
	ok, reason = th.Run(func(tx *Tx) {
		for i := 0; i < maxLines; i++ {
			tx.Load(base + simmem.Addr(i*simmem.WordsPerLine))
		}
	})
	if ok || reason != AbortCapacity {
		t.Fatalf("expected capacity abort, got ok=%v reason=%v", ok, reason)
	}
	if th.Stats.Aborts[AbortCapacity] != 1 {
		t.Fatalf("capacity aborts = %d, want 1", th.Stats.Aborts[AbortCapacity])
	}
}

// TestWriteSetCapacityExact is the write-line analogue.
func TestWriteSetCapacityExact(t *testing.T) {
	const maxLines = 8
	a := simmem.NewArena(1 << 14)
	h := New(a, Config{MaxReadLines: 64, MaxWriteLines: maxLines})
	p := vclock.NewWallProc(0, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, (maxLines+2)*simmem.WordsPerLine, simmem.TagKeys)

	ok, reason := th.Run(func(tx *Tx) {
		for i := 0; i < maxLines; i++ {
			tx.Store(base+simmem.Addr(i*simmem.WordsPerLine), 1)
		}
		// Additional stores to buffered lines (same or different word) are
		// free: they coalesce or merge into existing write lines.
		for i := 0; i < maxLines; i++ {
			tx.Store(base+simmem.Addr(i*simmem.WordsPerLine+5), 2)
		}
		if len(tx.wls) != maxLines {
			t.Fatalf("write-line list has %d lines, want %d", len(tx.wls), maxLines)
		}
	})
	if !ok {
		t.Fatalf("at-capacity transaction aborted: %v", reason)
	}

	ok, reason = th.Run(func(tx *Tx) {
		for i := 0; i <= maxLines; i++ {
			tx.Store(base+simmem.Addr(i*simmem.WordsPerLine), 1)
		}
	})
	if ok || reason != AbortCapacity {
		t.Fatalf("expected capacity abort, got ok=%v reason=%v", ok, reason)
	}
}

// TestAccessMaskBruteForce drives a pseudo-random mix of Loads and Stores
// and checks accessMask for every line (touched and untouched) against a
// reference mask map maintained independently of the indexes.
func TestAccessMaskBruteForce(t *testing.T) {
	const nLines = 50
	h, a := newDevice(1 << 16)
	p := vclock.NewWallProc(0, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, nLines*simmem.WordsPerLine, simmem.TagKeys)
	rng := vclock.NewRand(7)

	ok, reason := th.Run(func(tx *Tx) {
		ref := make(map[uint64]uint8) // line → words touched by the body
		for op := 0; op < 2000; op++ {
			l := int(rng.Uint64() % nLines)
			w := uint(rng.Uint64() % simmem.WordsPerLine)
			addr := base + simmem.Addr(l*simmem.WordsPerLine) + simmem.Addr(w)
			if rng.Uint64()%2 == 0 {
				tx.Load(addr)
			} else {
				tx.Store(addr, uint64(op))
			}
			ref[addr.Line()] |= 1 << w
		}
		// Note: the reference is per-word-touched; a Load served from the
		// store buffer still touched that word from the body's view, and
		// must not add read-set bits beyond what Store already recorded —
		// both maps agree because Store records the word in the write line.
		for l := uint64(0); l < nLines; l++ {
			line := (base + simmem.Addr(l*simmem.WordsPerLine)).Line()
			want := ref[line]
			if got := tx.accessMask(line, 0); got != want {
				t.Fatalf("accessMask(line %d) = %08b, want %08b", line, got, want)
			}
			if got := tx.accessMask(line, 0b1010); got != want|0b1010 {
				t.Fatalf("accessMask(line %d, extra) = %08b, want %08b", line, got, want|0b1010)
			}
		}
		// An untouched line reports only the extra bits.
		untouched := (base + simmem.Addr(nLines*simmem.WordsPerLine)).Line() + 5
		if got := tx.accessMask(untouched, 0b1); got != 0b1 {
			t.Fatalf("accessMask(untouched) = %08b, want 1", got)
		}
	})
	if !ok {
		t.Fatalf("commit failed: %v", reason)
	}
}

// TestWritingCommitZeroAlloc verifies the whole Run/Store/commit cycle is
// allocation-free once the per-Tx buffers and indexes are warm — the
// invariant that keeps host benchmark time proportional to emulated work.
func TestWritingCommitZeroAlloc(t *testing.T) {
	h, a := newDevice(1 << 16)
	p := vclock.NewWallProc(0, 0)
	th := h.NewThread(p, 1)
	base := a.AllocAligned(p, 64*simmem.WordsPerLine, simmem.TagKeys)

	body := func(tx *Tx) {
		for i := 0; i < 32; i++ {
			tx.Load(base + simmem.Addr(i*simmem.WordsPerLine))
		}
		for i := 0; i < 32; i++ {
			tx.Store(base+simmem.Addr(i*simmem.WordsPerLine+1), uint64(i))
		}
	}
	// Warm up buffers, index tables, and the commit scratch list.
	for i := 0; i < 3; i++ {
		if ok, reason := th.Run(body); !ok {
			t.Fatalf("warm-up abort: %v", reason)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if ok, _ := th.Run(body); !ok {
			t.Fatal("abort during measured run")
		}
	})
	if allocs != 0 {
		t.Fatalf("writing commit allocates %.1f objects/op after warm-up, want 0", allocs)
	}
}
