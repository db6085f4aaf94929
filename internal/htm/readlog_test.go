package htm

// Tests of the read log (Tx.Load appends instead of probing an index), the
// same-line revalidation shortcut, and a host thread's clock sampling.

import (
	"fmt"
	"testing"

	"eunomia/internal/obs"
	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// indexedRecorder is the read/write-set bookkeeping Tx.Load and Tx.Store did
// before the read log: every access goes through the line index, so the read
// set is de-duplicated as it is built. It is kept as the oracle the log is
// compared against — same capacity aborts, same masks, same distinct lines.
type indexedRecorder struct {
	rs       []readEntry
	wls      []writeLine
	lines    lineTab
	ws       map[simmem.Addr]uint64
	maxRead  int
	maxWrite int
}

// load records a read of addr; it reports false where the parent raised a
// capacity abort.
func (o *indexedRecorder) load(addr simmem.Addr) bool {
	if _, buffered := o.ws[addr]; buffered {
		return true
	}
	line, bit := addr.Line(), uint8(1)<<addr.WordInLine()
	ls := o.lines.put(line)
	if ls.rs != noIdx {
		o.rs[ls.rs].mask |= bit
		return true
	}
	if len(o.rs) >= o.maxRead {
		return false
	}
	ls.rs = int32(len(o.rs))
	o.rs = append(o.rs, readEntry{line: line, mask: bit})
	return true
}

// store is load's counterpart for a buffered write.
func (o *indexedRecorder) store(addr simmem.Addr, v uint64) bool {
	if _, buffered := o.ws[addr]; buffered {
		o.ws[addr] = v
		return true
	}
	o.ws[addr] = v
	line, bit := addr.Line(), uint8(1)<<addr.WordInLine()
	ls := o.lines.put(line)
	if ls.wls != noIdx {
		o.wls[ls.wls].mask |= bit
		return true
	}
	if len(o.wls) >= o.maxWrite {
		return false
	}
	ls.wls = int32(len(o.wls))
	o.wls = append(o.wls, writeLine{line: line, mask: bit})
	return true
}

func (o *indexedRecorder) accessMask(line uint64) uint8 {
	var m uint8
	if s := o.lines.get(line); s != nil {
		if s.rs != noIdx {
			m |= o.rs[s.rs].mask
		}
		if s.wls != noIdx {
			m |= o.wls[s.wls].mask
		}
	}
	return m
}

type rwOp struct {
	store bool
	addr  simmem.Addr
	val   uint64
}

// TestReadLogDifferential drives the read log and the indexed oracle with
// the same seeded load/store sequences — revisits of a line after other
// lines, stores before and after reads of the same line, runs of one line —
// at capacities small enough that most sequences overflow and at the default.
// Both must abort at the same access for the same reason, agree on
// accessMask for every line and on the number of distinct lines read, and
// leave the same memory behind.
func TestReadLogDifferential(t *testing.T) {
	for _, maxRead := range []int{2, 4, 8, 512} {
		t.Run(fmt.Sprintf("MaxReadLines=%d", maxRead), func(t *testing.T) {
			nLines := maxRead + 3
			if maxRead == 512 {
				nLines = 520
			}
			a := simmem.NewArena(uint64(nLines+8) * simmem.WordsPerLine * 2)
			h := New(a, Config{MaxReadLines: maxRead, MaxWriteLines: 512})
			p := vclock.NewWallProc(0, 0)
			th := h.NewThread(p, 1)
			base := a.AllocAligned(p, nLines*simmem.WordsPerLine, simmem.TagKeys)
			mem := make(map[simmem.Addr]uint64) // committed contents, by the oracle
			rng := vclock.NewRand(uint64(maxRead))
			aborted, committed, folded := 0, 0, 0

			for round := 0; round < 300; round++ {
				// A sequence over a window of 1..nLines lines (nLines is just
				// past the capacity), so that rounds land on both sides of it.
				window := 1 + int(rng.Uint64()%uint64(nLines))
				ops := make([]rwOp, 1+int(rng.Uint64()%uint64(6*maxRead)))
				line := 0
				for i := range ops {
					if rng.Uint64()%2 == 0 { // the rest stay on the line
						line = int(rng.Uint64() % uint64(window))
					}
					ops[i] = rwOp{
						store: rng.Uint64()%4 == 0,
						addr:  base + simmem.Addr(line*simmem.WordsPerLine) + simmem.Addr(rng.Uint64()%simmem.WordsPerLine),
						val:   rng.Uint64(),
					}
				}

				or := &indexedRecorder{ws: map[simmem.Addr]uint64{}, maxRead: maxRead, maxWrite: 512}
				or.load(h.fallback) // Run's subscription
				wantAbortAt := -1
				for i, op := range ops {
					ok := false
					if op.store {
						ok = or.store(op.addr, op.val)
					} else {
						ok = or.load(op.addr)
					}
					if !ok {
						wantAbortAt = i
						break
					}
				}

				at := 0
				buffered := map[simmem.Addr]uint64{}
				ok, reason := th.Run(func(tx *Tx) {
					for i, op := range ops {
						at = i
						if op.store {
							tx.Store(op.addr, op.val)
							buffered[op.addr] = op.val
							continue
						}
						want, own := buffered[op.addr]
						if !own {
							want = mem[op.addr]
						}
						if got := tx.Load(op.addr); got != want {
							t.Fatalf("round %d op %d: Load(%d) = %d, want %d", round, i, op.addr, got, want)
						}
					}
					at = len(ops)
				})
				tx := &th.tx
				if tx.rsFolded {
					folded++
				}
				if wantAbortAt >= 0 {
					aborted++
					if ok || reason != AbortCapacity || at != wantAbortAt {
						t.Fatalf("round %d: ok=%v reason=%v at op %d, oracle has a capacity abort at op %d",
							round, ok, reason, at, wantAbortAt)
					}
				} else {
					committed++
					if !ok {
						t.Fatalf("round %d: aborted (%v) at op %d, oracle commits", round, reason, at)
					}
					for addr, v := range or.ws {
						mem[addr] = v
					}
				}
				distinct := map[uint64]bool{}
				for _, re := range tx.rs {
					distinct[re.line] = true
				}
				if len(distinct) != len(or.rs) {
					t.Fatalf("round %d: %d distinct lines in the read set, oracle has %d", round, len(distinct), len(or.rs))
				}
				if tx.rsFolded && len(tx.rs) != len(distinct) {
					t.Fatalf("round %d: folded read set has %d entries for %d lines", round, len(tx.rs), len(distinct))
				}
				first := base.Line()
				for l := first - 1; l <= first+uint64(nLines); l++ {
					if got, want := tx.accessMask(l, 0), or.accessMask(l); got != want {
						t.Fatalf("round %d: accessMask(line %d) = %08b, oracle %08b", round, l, got, want)
					}
				}
				for i := 0; i < nLines*simmem.WordsPerLine; i++ {
					addr := base + simmem.Addr(i)
					if got := a.WordRaw(addr); got != mem[addr] {
						t.Fatalf("round %d: memory[%d] = %d, want %d", round, addr, got, mem[addr])
					}
				}
			}
			t.Logf("%d commits, %d capacity aborts, %d folds", committed, aborted, folded)
			if committed == 0 || folded == 0 || (maxRead < 512 && aborted == 0) {
				t.Fatal("the sequences miss a case")
			}
		})
	}
}

// TestSameLineRevalidation: the shortcut for a second load of the line just
// read compares one state word, and must still see a direct store that
// landed between the two loads — and classify it from every word of the line
// the transaction touched, the word being loaded included.
func TestSameLineRevalidation(t *testing.T) {
	for _, tc := range []struct {
		name           string
		tag            simmem.Tag
		first, written int
		second         int
		want           AbortReason
	}{
		{"word read before", simmem.TagKeys, 0, 0, 1, AbortConflictTrue},
		{"word being read", simmem.TagKeys, 0, 1, 1, AbortConflictTrue},
		{"another word", simmem.TagKeys, 0, 3, 1, AbortConflictFalse},
		{"metadata line", simmem.TagNodeMeta, 0, 3, 1, AbortConflictMeta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, a := newDevice(1 << 14)
			p := vclock.NewWallProc(0, 0)
			th := h.NewThread(p, 1)
			x := a.AllocAligned(p, simmem.WordsPerLine, tc.tag)
			reached := false
			ok, reason := th.Run(func(tx *Tx) {
				tx.Load(x + simmem.Addr(tc.first))
				a.StoreWordDirect(p, x+simmem.Addr(tc.written), 5)
				tx.Load(x + simmem.Addr(tc.second))
				reached = true
			})
			if ok || reason != tc.want || reached {
				t.Fatalf("ok=%v reason=%v ran-past-the-load=%v, want an abort at the second load with %v",
					ok, reason, reached, tc.want)
			}
			// Untouched, the same two loads commit and merge into one entry.
			ok, _ = th.Run(func(tx *Tx) {
				tx.Load(x + simmem.Addr(tc.first))
				tx.Load(x + simmem.Addr(tc.second))
				want := uint8(1)<<tc.first | uint8(1)<<tc.second
				if n := len(tx.rs); n != 2 || tx.rs[1].mask != want {
					t.Fatalf("read log %+v, want the subscription and one entry with mask %08b", tx.rs, want)
				}
			})
			if !ok {
				t.Fatal("undisturbed same-line loads aborted")
			}
		})
	}
}

// countingProc is a host proc that counts the clock reads made through it.
type countingProc struct {
	*vclock.HostProc
	nows int
}

func (p *countingProc) Now() uint64 {
	p.nows++
	return p.HostProc.Now()
}

// tickingHostProc is a host proc whose clock is the cycles it is charged,
// as a WallProc's is, so timings on it are deterministic.
type tickingHostProc struct {
	*vclock.HostProc
	clock uint64
}

func (p *tickingHostProc) Tick(cycles uint64) { p.clock += cycles }
func (p *tickingHostProc) Now() uint64        { return p.clock }

type nopObserver struct{}

func (nopObserver) Event(obs.Event) {}

// TestHostClockSampling: a committed Execute on a host thread reads the
// clock only when its first attempt is the sampled one in hostClockSample;
// with an observer attached every attempt is timed, as its events need.
func TestHostClockSampling(t *testing.T) {
	const execs = 1600
	run := func(o obs.Observer) (nows int, attempts uint64) {
		h, a := newDeviceWith(1<<14, Config{Observer: o})
		p := &countingProc{HostProc: vclock.NewHostProc(0)}
		th := h.NewThread(p, 1)
		x := a.AllocAligned(p, simmem.WordsPerLine, simmem.TagKeys)
		for i := 0; i < execs; i++ {
			th.Execute(RetryPolicy{}, func(tx *Tx) { tx.Store(x, tx.Load(x)+1) })
		}
		if got := a.WordRaw(x); got != execs || th.Stats.Commits != execs {
			t.Fatalf("counter = %d after %d commits, want %d", got, th.Stats.Commits, execs)
		}
		return p.nows, th.Stats.Attempts
	}
	if nows, _ := run(nil); nows > 110 {
		t.Errorf("%d committed Executes read the clock %d times, want at most 110", execs, nows)
	}
	if nows, attempts := run(nopObserver{}); uint64(nows) < attempts {
		t.Errorf("with an observer: %d clock reads over %d attempts, want at least one each", nows, attempts)
	}
}

// TestHostWastedCyclesEstimate: sampling the first attempt 1 time in
// hostClockSample at hostClockSample times the weight keeps
// Stats.WastedCycles an estimate of the exactly-timed sum. The host clock
// here is a tick count, so the comparison is deterministic. On a proc that
// keeps virtual time nothing is sampled and the sum is exact.
func TestHostWastedCyclesEstimate(t *testing.T) {
	const execs = 10000
	// injected: the fault injector kills every 3rd Execute's first attempt
	// at begin. explicit: every 3rd body aborts itself once, after a
	// varying amount of work, so aborted attempts differ in length.
	wasted := func(t *testing.T, p vclock.Proc, o obs.Observer, injected bool) (uint64, uint64) {
		a := simmem.NewArena(1 << 14)
		h := New(a, Config{Observer: o})
		if injected {
			h.SetFaultInjector(NewFaultInjector(FaultSpec{Point: FaultFallback, Action: ActAbort, Nth: 3}))
		}
		th := h.NewThread(p, 1)
		x := a.AllocAligned(p, 8*simmem.WordsPerLine, simmem.TagKeys)
		for i := 0; i < execs; i++ {
			first := true
			th.Execute(RetryPolicy{}, func(tx *Tx) {
				for j := 0; j <= i%7; j++ {
					tx.Store(x+simmem.Addr(j*simmem.WordsPerLine), uint64(i))
				}
				if !injected && i%3 == 0 && first {
					first = false
					tx.Abort(1)
				}
			})
		}
		if th.Stats.Aborts[AbortExplicit] < execs/3 || th.Stats.Fallbacks != 0 {
			t.Fatalf("stats %v: want an explicit abort on every 3rd Execute and no fallback", &th.Stats)
		}
		return th.Stats.WastedCycles, th.Stats.Aborts[AbortExplicit] * a.Costs().TxBegin
	}
	for _, injected := range []bool{true, false} {
		t.Run(fmt.Sprintf("injected=%v", injected), func(t *testing.T) {
			host := func() vclock.Proc { return &tickingHostProc{HostProc: vclock.NewHostProc(0)} }
			exact, _ := wasted(t, host(), nopObserver{}, injected)
			sampled, _ := wasted(t, host(), nil, injected)
			if sampled == 0 || exact == 0 || 2*sampled < exact || sampled > 2*exact {
				t.Errorf("host WastedCycles: sampled %d, exactly timed %d; want non-zero and within x[0.5, 2]", sampled, exact)
			}
			timed, atBegin := wasted(t, vclock.NewWallProc(0, 0), nil, injected)
			if withObs, _ := wasted(t, vclock.NewWallProc(0, 0), nopObserver{}, injected); timed != withObs {
				t.Errorf("timed WastedCycles %d without an observer, %d with one", timed, withObs)
			}
			if injected {
				// Killed at begin: each aborted attempt wasted its TxBegin.
				if timed != atBegin {
					t.Errorf("timed WastedCycles = %d, want %d (every abort timed exactly)", timed, atBegin)
				}
			}
		})
	}
}
