package simmem_test

import (
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// TestOrWordDirect: a fetch-or returns the word it found. Setting a bit
// that is already set is a no-op, as a failed CAS is — the line's state
// and write mask stay as they were and a transaction that read the line
// commits; setting a clear bit is a write — both move and that
// transaction aborts.
func TestOrWordDirect(t *testing.T) {
	a := simmem.NewArena(1 << 14)
	h := htm.New(a, htm.DefaultConfig)
	p := vclock.NewWallProc(0, 0)
	th := h.NewThread(p, 1)
	x := a.AllocAligned(p, simmem.WordsPerLine, simmem.TagCCM)
	y := a.AllocAligned(p, simmem.WordsPerLine, simmem.TagKeys)
	a.StoreWordDirect(p, x+1, 0b0001)
	a.StoreWordDirect(p, x+5, 0b0101) // the line's last writer wrote word 5
	line := x.Line()

	for _, c := range []struct {
		name            string
		bits, prev, now uint64 // bits to set; the word before and after
		writes          bool
	}{
		{"already set", 0b0001, 0b0001, 0b0001, false},
		{"one clear", 0b0010, 0b0001, 0b0011, true},
	} {
		state, mask := a.LineState(line), a.WriteMask(line)
		var old uint64
		first := true
		ok, reason := th.Run(func(tx *htm.Tx) {
			tx.Store(y, tx.Load(x+1)+1) // a writing tx, so its commit validates the read
			if first {
				first = false
				old = a.OrWordDirect(p, x+1, c.bits)
			}
		})
		if old != c.prev {
			t.Fatalf("%s: fetch-or returned %b, want the previous word %b", c.name, old, c.prev)
		}
		if got := a.WordRaw(x + 1); got != c.now {
			t.Fatalf("%s: word %b after the fetch-or, want %b", c.name, got, c.now)
		}
		if (a.LineState(line) != state) != c.writes || (a.WriteMask(line) != mask) != c.writes {
			t.Fatalf("%s: line state %d → %d, write mask %08b → %08b; want both changed = %v",
				c.name, state, a.LineState(line), mask, a.WriteMask(line), c.writes)
		}
		if c.writes && a.WriteMask(line) != 1<<1 {
			t.Fatalf("%s: write mask %08b, want word 1's bit", c.name, a.WriteMask(line))
		}
		if ok == c.writes || (c.writes && !reason.IsConflict()) {
			t.Fatalf("%s: a transaction that read the line: committed = %v (%v), want %v", c.name, ok, reason, !c.writes)
		}
		if simmem.StateLocked(a.LineState(line)) {
			t.Fatalf("%s: line left locked", c.name)
		}
	}
}
