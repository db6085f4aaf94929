package vclock

import "testing"

// TestHostTickNeverYields: work that waits for nobody never enters the
// scheduler, however much of it is charged.
func TestHostTickNeverYields(t *testing.T) {
	p := NewHostProc(0)
	for i := 0; i < 1_000_000; i++ {
		p.Tick(DefaultCosts.TxBegin + DefaultCosts.TxCommit + DefaultCosts.CAS)
	}
	if p.yields != 0 {
		t.Fatalf("1e6 Tick calls yielded %d times, want 0", p.yields)
	}
}

// TestHostSpinYieldsWithinBound: a waiter yields once per hostYieldCycles
// of failed iterations — every ceil(bound/SpinIter) of them, no later — and
// a single charge of the bound or more yields at once.
func TestHostSpinYieldsWithinBound(t *testing.T) {
	p := NewHostProc(0)
	iter := DefaultCosts.SpinIter
	bound := (hostYieldCycles + iter - 1) / iter
	for round := uint64(1); round <= 3; round++ {
		for i := uint64(0); i < bound-1; i++ {
			p.Spin(iter)
		}
		if p.yields != round-1 {
			t.Fatalf("round %d: %d yields after %d iterations, want %d", round, p.yields, bound-1, round-1)
		}
		p.Spin(iter)
		if p.yields != round {
			t.Fatalf("round %d: %d yields after %d iterations, want %d", round, p.yields, bound, round)
		}
	}
	was := p.yields
	p.Spin(hostYieldCycles)
	if p.yields != was+1 {
		t.Fatalf("Spin(hostYieldCycles) yielded %d times, want 1", p.yields-was)
	}
}

// TestSpinIsTickInVirtualTime: on the simulated and wall procs Spin charges
// exactly what Tick charges, so moving a wait loop from one to the other
// moves no virtual-time figure.
func TestSpinIsTickInVirtualTime(t *testing.T) {
	w1, w2 := NewWallProc(0, 0), NewWallProc(0, 0)
	for i := uint64(1); i < 100; i++ {
		w1.Tick(i)
		w2.Spin(i)
	}
	if w1.Now() != w2.Now() {
		t.Fatalf("WallProc: Tick clock %d, Spin clock %d", w1.Now(), w2.Now())
	}
	run := func(spin bool) (clocks [2]uint64) {
		s := NewSim(2, 0)
		s.Run(func(p *SimProc) {
			for i := uint64(1); i < 200; i++ {
				c := i%7 + uint64(p.ID())
				if spin {
					p.Spin(c)
				} else {
					p.Tick(c)
				}
			}
		})
		for i, p := range s.Procs() {
			clocks[i] = p.Now()
		}
		return clocks
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("SimProc: Tick clocks %v, Spin clocks %v", a, b)
	}
}
