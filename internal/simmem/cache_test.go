package simmem

import (
	"testing"

	"eunomia/internal/vclock"
)

func costs() vclock.CostModel { return vclock.DefaultCosts }

// TestCacheHitMissCosts: the second access to an unmodified line costs the
// hit price; a committed write by another core turns it back into a miss.
func TestCacheHitMissCosts(t *testing.T) {
	a := NewArena(1 << 14)
	p := vclock.NewWallProc(1, 0)
	q := vclock.NewWallProc(2, 0)
	x := a.AllocAligned(p, 8, TagKeys)

	before := p.Now()
	a.LoadWord(p, x)
	missCost := p.Now() - before
	if missCost != costs().Miss {
		t.Fatalf("first access cost %d, want miss %d", missCost, costs().Miss)
	}
	before = p.Now()
	a.LoadWord(p, x+3) // same line
	if got := p.Now() - before; got != costs().Load {
		t.Fatalf("second access cost %d, want hit %d", got, costs().Load)
	}

	// Another core writes the line: our copy is invalidated.
	a.StoreWordDirect(q, x, 7)
	before = p.Now()
	a.LoadWord(p, x)
	if got := p.Now() - before; got != costs().Miss {
		t.Fatalf("post-invalidation access cost %d, want miss %d", got, costs().Miss)
	}

	// The writer's own copy stays fresh (NoteLineWritten).
	before = q.Now()
	a.LoadWord(q, x)
	if got := q.Now() - before; got != costs().Load {
		t.Fatalf("writer's own access cost %d, want hit %d", got, costs().Load)
	}
}

// TestPrefetchBatchCost: a burst of independent misses pays one full miss
// plus the pipelined marginal cost, and installs all lines.
func TestPrefetchBatchCost(t *testing.T) {
	a := NewArena(1 << 14)
	p := vclock.NewWallProc(1, 0)
	x := a.AllocAligned(p, 4*WordsPerLine, TagKeys)

	before := p.Now()
	a.Prefetch(p, x, x+8, x+16, x+24)
	want := costs().Miss + 3*costs().MissPipelined
	if got := p.Now() - before; got != want {
		t.Fatalf("burst cost %d, want %d", got, want)
	}
	// All four lines now hit.
	before = p.Now()
	for i := 0; i < 4; i++ {
		a.LoadWord(p, x+Addr(i*WordsPerLine))
	}
	if got := p.Now() - before; got != 4*costs().Load {
		t.Fatalf("post-prefetch loads cost %d, want %d", got, 4*costs().Load)
	}
	// Prefetching already-cached lines costs nothing.
	before = p.Now()
	a.Prefetch(p, x, x+8)
	if got := p.Now() - before; got != 0 {
		t.Fatalf("warm prefetch cost %d, want 0", got)
	}
}

// TestCacheProcIDBounds: out-of-range proc IDs are a configuration error.
func TestCacheProcIDBounds(t *testing.T) {
	a := NewArena(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range proc id")
		}
	}()
	a.LoadWord(vclock.NewWallProc(MaxProcs, 0), 8)
}

// TestRetagMovesAccounting verifies the byte accounting transfer.
func TestRetagMovesAccounting(t *testing.T) {
	a := NewArena(1 << 12)
	p := vclock.NewWallProc(1, 0)
	x := a.AllocAligned(p, 3*WordsPerLine, TagKeys)
	if got := a.BytesByTag(TagKeys); got != 3*LineBytes {
		t.Fatalf("keys bytes = %d", got)
	}
	a.Retag(x, WordsPerLine, TagNodeMeta)
	if got := a.BytesByTag(TagNodeMeta); got != LineBytes {
		t.Fatalf("meta bytes = %d", got)
	}
	if got := a.BytesByTag(TagKeys); got != 2*LineBytes {
		t.Fatalf("keys bytes after retag = %d", got)
	}
	// Freeing accounts per line tag and leaves no residue.
	a.Free(p, x, 3*WordsPerLine, TagKeys)
	if a.BytesByTag(TagKeys) != 0 || a.BytesByTag(TagNodeMeta) != 0 {
		t.Fatalf("residue after free: keys=%d meta=%d",
			a.BytesByTag(TagKeys), a.BytesByTag(TagNodeMeta))
	}
}

// TestStoreWordOwnedInvalidatesAndAbortsReaders: owned stores must bump
// the version like direct stores do.
func TestStoreWordOwned(t *testing.T) {
	a := NewArena(1 << 12)
	p := vclock.NewWallProc(1, 0)
	x := a.AllocAligned(p, 8, TagKeys)
	v0 := StateVersion(a.LineState(x.Line()))
	a.StoreWordOwned(p, x+2, 9)
	if got := a.LoadWord(p, x+2); got != 9 {
		t.Fatalf("value = %d", got)
	}
	if v1 := StateVersion(a.LineState(x.Line())); v1 <= v0 {
		t.Fatalf("version not bumped: %d -> %d", v0, v1)
	}
	if m := a.WriteMask(x.Line()); m != 1<<2 {
		t.Fatalf("mask = %08b", m)
	}
}
