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

// TestHostProcSkipsCacheModel: a HostProc's accesses never enter the cost
// model. They install nothing in the cache of the core that shares their
// id, so a WallProc with that id still pays Miss afterwards, and an id past
// maxProcs is only a label.
func TestHostProcSkipsCacheModel(t *testing.T) {
	a := NewArena(1 << 14)
	host := vclock.NewHostProc(1)
	x := a.AllocAligned(host, WordsPerLine, TagKeys)
	a.LoadWord(host, x)
	a.StoreWordDirect(host, x, 7)
	a.ChargeAccess(host, x, false)
	a.ChargeAccessVersioned(host, x, StateVersion(a.LineState(x.Line())), false)
	a.NoteLineWritten(host, x.Line(), StateVersion(a.LineState(x.Line())))
	if got := a.LoadWord(vclock.NewHostProc(10_000), x); got != 7 {
		t.Fatalf("LoadWord by an unbounded host id = %d, want 7", got)
	}

	p := vclock.NewWallProc(1, 0)
	a.LoadWord(p, x)
	if got := p.Now(); got != costs().Miss {
		t.Fatalf("first timed access after host accesses cost %d, want miss %d", got, costs().Miss)
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
	a.LoadWord(vclock.NewWallProc(maxProcs, 0), 8)
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
