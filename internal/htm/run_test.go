package htm

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// TestRunIsItsLoadsInVirtualTime: on a SimProc a run read is the per-word
// Loads it stands for — the same values, read-set masks in the same order,
// cycles and Stats — across a skip, a step back within a line, a Load of
// another line in between, and a line with a buffered store. Each side runs
// on a device of its own, built the same way.
func TestRunIsItsLoadsInVirtualTime(t *testing.T) {
	type result struct {
		vals  []uint64
		rs    []readEntry
		clock uint64
		stats Stats
	}
	play := func(useRun bool) (r result) {
		vclock.NewSim(1, 0).Run(func(p *vclock.SimProc) {
			h, a := newDevice(1 << 14)
			th := h.NewThread(p, 1)
			other := a.AllocAligned(p, simmem.WordsPerLine, simmem.TagNodeMeta)
			base := a.AllocAligned(p, 3*simmem.WordsPerLine, simmem.TagKeys)
			for w := simmem.Addr(0); w < 3*simmem.WordsPerLine; w++ {
				a.StoreWordDirect(p, base+w, 3*uint64(w)+1)
			}
			reads := []simmem.Addr{base + 2, base + 3, base + 9, base + 8, base + 15, base + 16, base + 17, base + 23}
			ok, reason := th.Run(func(tx *Tx) {
				tx.Store(base+16, 99)
				run := tx.Run(base+2, base+3*simmem.WordsPerLine)
				r.vals = r.vals[:0]
				for i, addr := range reads {
					if i == 3 {
						r.vals = append(r.vals, tx.Load(other))
					}
					if useRun {
						r.vals = append(r.vals, run.Load(addr))
					} else {
						r.vals = append(r.vals, tx.Load(addr))
					}
				}
				r.rs = slices.Clone(tx.rs)
			})
			if !ok {
				t.Errorf("useRun=%v: attempt aborted: %v", useRun, reason)
			}
			r.clock, r.stats = p.Now(), th.Stats
		})
		return r
	}
	loads, run := play(false), play(true)
	if !slices.Equal(run.vals, loads.vals) || run.vals[6] != 99 {
		t.Fatalf("run read %v, the per-word Loads %v (word 16 holds a buffered 99)", run.vals, loads.vals)
	}
	if !slices.Equal(run.rs, loads.rs) {
		t.Fatalf("run read logged %v, the per-word Loads %v", run.rs, loads.rs)
	}
	if run.clock != loads.clock || run.stats != loads.stats {
		t.Fatalf("run read ended at cycle %d with %+v, the per-word Loads at %d with %+v",
			run.clock, run.stats, loads.clock, loads.stats)
	}
}

// TestRunReadsBufferedStores: on a HostProc a run over a line with a
// buffered store returns the buffered words and memory's others, whether
// the store came before the run first read the line or after.
func TestRunReadsBufferedStores(t *testing.T) {
	h, a := newDevice(1 << 14)
	th := h.NewHostThread(0, 1)
	base := a.AllocAligned(th.P, 2*simmem.WordsPerLine, simmem.TagKeys)
	for w := simmem.Addr(0); w < 2*simmem.WordsPerLine; w++ {
		a.SetWordRaw(base+w, uint64(w))
	}
	ok, reason := th.Run(func(tx *Tx) {
		tx.Store(base+5, 77)
		run := tx.Run(base, base+2*simmem.WordsPerLine)
		for w := simmem.Addr(0); w < simmem.WordsPerLine; w++ {
			want := uint64(w)
			if w == 5 {
				want = 77
			}
			if got := run.Load(base + w); got != want {
				t.Errorf("word %d = %d, want %d", w, got, want)
			}
		}
		line2 := base + simmem.WordsPerLine
		if got := run.Load(line2); got != uint64(simmem.WordsPerLine) {
			t.Errorf("word %d = %d before the store, want %d", simmem.WordsPerLine, got, simmem.WordsPerLine)
		}
		tx.Store(line2+1, 55)
		if got := run.Load(line2 + 1); got != 55 {
			t.Errorf("word %d = %d after a store to it, want 55", simmem.WordsPerLine+1, got)
		}
	})
	if !ok {
		t.Fatalf("attempt aborted: %v", reason)
	}
}

// TestRunRecheckAbortsOnCommit: a writer commits n to every word of one
// line, n = 1, 2, …, while a reader run-reads the line on a HostProc. A
// commit that lands between the run's state check and its re-check must
// abort the attempt before any word reaches the body, so the body never
// sees two values. It catches something only on two or more cores.
func TestRunRecheckAbortsOnCommit(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the writer must commit beside the run read")
	}
	h, a := newDevice(1 << 14)
	line := a.AllocAligned(vclock.NewHostProc(0), simmem.WordsPerLine, simmem.TagKeys)
	reads := 200_000
	if testing.Short() {
		reads = 50_000
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := h.NewHostThread(1, 7)
		for n := uint64(1); !stop.Load(); n++ {
			th.Execute(DefaultPolicy, func(tx *Tx) {
				for w := simmem.Addr(0); w < simmem.WordsPerLine; w++ {
					tx.Store(line+w, n)
				}
			})
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)
	th := h.NewHostThread(2, 9)
	var words [simmem.WordsPerLine]uint64
	torn := false
	for i := 0; i < reads && !torn; i++ {
		th.Run(func(tx *Tx) {
			run := tx.Run(line, line+simmem.WordsPerLine)
			for w := range words {
				words[w] = run.Load(line + simmem.Addr(w))
				torn = torn || words[w] != words[0]
			}
		})
	}
	if torn {
		t.Fatalf("the body saw a torn line %v: a commit landed between the state check and the re-check", words)
	}
	t.Logf("%d of %d reader attempts met a commit", th.Stats.ConflictAborts(), th.Stats.Attempts)
}
