package htm

// The per-transaction line index over the read set and the write-line list
// (the store buffer, one entry per line).
//
// The rs/wls slices remain the ordered source of truth (commit's apply
// loop and the capacity checks iterate them); the table here only maps a
// cache line to its slice indexes so that every Tx.Load / Tx.Store /
// accessMask query is O(1) instead of a linear scan. It is open-addressed
// with linear probing and is owned by exactly one Tx, which reuses it
// across attempts the same way it reuses rs/wls: resetting is O(1) via a
// generation stamp (a slot is live only when its gen matches the table's),
// so an aborted 512-line attempt does not pay to clear 512 slots before
// retrying.
//
// Growth doubles the slot array and reinserts live entries; after the first
// few transactions warm a thread's table to its working-set size, the
// steady state allocates nothing.

const (
	// noIdx marks "no entry" in a slot's rs/wls index fields.
	noIdx int32 = -1
	// minTabBits sizes a fresh table at 64 slots.
	minTabBits = 6
	// hashMult is Fibonacci-hashing's 64-bit golden-ratio multiplier.
	hashMult = 0x9e3779b97f4a7c15
)

// lineSlot is one line's index entry: where the line sits in tx.rs and
// tx.wls (noIdx if absent), and whether commit currently holds its lock
// ("owned", valid only during a commit attempt).
type lineSlot struct {
	line  uint64
	gen   uint32
	owned bool
	rs    int32
	wls   int32
}

// lineTab indexes tx.rs and tx.wls by cache line.
type lineTab struct {
	slots []lineSlot
	shift uint
	gen   uint32
	used  int
}

// reset invalidates every entry in O(1) by advancing the generation, and
// makes the first slots.
func (t *lineTab) reset() {
	if len(t.slots) == 0 {
		t.slots = make([]lineSlot, 1<<minTabBits)
		t.shift = 64 - minTabBits
	}
	t.gen++
	t.used = 0
	if t.gen == 0 { // generation counter wrapped: flush stale stamps once
		for i := range t.slots {
			t.slots[i].gen = 0
		}
		t.gen = 1
	}
}

// get returns the live slot for line, or nil. The table must have slots:
// reset or put makes them. (Without the empty-table check, Tx.wlsOf stays
// small enough to inline.)
func (t *lineTab) get(line uint64) *lineSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (line * hashMult) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return nil
		}
		if s.line == line {
			return s
		}
	}
}

// put returns the live slot for line, inserting an empty one (rs = wls =
// noIdx) if absent.
func (t *lineTab) put(line uint64) *lineSlot {
	if len(t.slots) == 0 {
		t.slots = make([]lineSlot, 1<<minTabBits)
		t.shift = 64 - minTabBits
		if t.gen == 0 {
			t.gen = 1
		}
	} else if t.used*2 >= len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := (line * hashMult) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = lineSlot{line: line, gen: t.gen, rs: noIdx, wls: noIdx}
			t.used++
			return s
		}
		if s.line == line {
			return s
		}
	}
}

// grow doubles the table, reinserting live entries.
func (t *lineTab) grow() {
	old := t.slots
	bits := 64 - t.shift + 1
	t.slots = make([]lineSlot, 1<<bits)
	t.shift = 64 - bits
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		s := old[i]
		if s.gen != t.gen {
			continue
		}
		for j := (s.line * hashMult) >> t.shift; ; j = (j + 1) & mask {
			if t.slots[j].gen != t.gen {
				t.slots[j] = s
				break
			}
		}
	}
}
