package core

import (
	"fmt"
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/tree/treetest"
	"eunomia/internal/vclock"
)

// combineTestConfig is the default tree with CCM v2 always on (Adaptive
// off makes every leaf hot, so the combining path is exercised
// constantly, not only under detected contention).
func combineTestConfig() Config {
	cfg := DefaultConfig
	cfg.Adaptive = false
	cfg.Combine.Enabled = true
	return cfg
}

// TestKitCombine runs the complete correctness kit with combining on.
func TestKitCombine(t *testing.T) {
	treetest.RunAll(t, factoryWith(combineTestConfig()))
}

// TestKitCombineTinyStripe forces constant stripe saturation (one slot)
// so the fallback-to-normal-path interop is exercised on every burst.
func TestKitCombineTinyStripe(t *testing.T) {
	cfg := combineTestConfig()
	cfg.Combine.Stripes = 1
	cfg.Combine.Slots = 1
	treetest.RunAll(t, factoryWith(cfg))
}

func TestCombineSingleThreadSemantics(t *testing.T) {
	tr, boot := newEuno(t, combineTestConfig())
	for i := uint64(1); i <= 500; i++ {
		tr.Put(boot, i, i*3)
	}
	for i := uint64(1); i <= 500; i++ {
		if v, ok := tr.Get(boot, i); !ok || v != i*3 {
			t.Fatalf("get(%d) = %d,%v", i, v, ok)
		}
	}
	for i := uint64(2); i <= 500; i += 2 {
		if !tr.Delete(boot, i) {
			t.Fatalf("delete(%d) missed", i)
		}
	}
	if tr.Delete(boot, 2) {
		t.Fatal("double delete reported found")
	}
	for i := uint64(1); i <= 500; i++ {
		v, ok := tr.Get(boot, i)
		if want := i%2 == 1; ok != want || (ok && v != i*3) {
			t.Fatalf("get(%d) = %d,%v want present=%v", i, v, ok, want)
		}
	}
	// A single thread always self-serves: batches of one, no handoffs.
	if tr.CombinedBatches() == 0 || tr.CombinedOps() == 0 {
		t.Fatalf("combining never engaged: batches=%d ops=%d",
			tr.CombinedBatches(), tr.CombinedOps())
	}
	if tr.CombinerHandoffs() != 0 {
		t.Fatalf("single thread recorded %d handoffs", tr.CombinerHandoffs())
	}
	if err := tr.Validate(boot.P); err != nil {
		t.Fatal(err)
	}
}

// failingGroups is a GroupCommitter whose transactions cannot make what the
// batch observed durable: Commit and Abort both report it.
type failingGroups struct{ err error }

func (g failingGroups) Begin([]uint64) (GroupTxn, error) { return g, nil }
func (g failingGroups) Commit([]GroupOp) error           { return g.err }
func (g failingGroups) Abort() error                     { return g.err }

// TestCombineMissedDeleteCarriesAbortError: a combined batch whose deletes
// all miss logs nothing, but its "was not there" answers observed writes the
// group could not flush, so they carry the Abort's error like an applied
// op carries the Commit's.
func TestCombineMissedDeleteCarriesAbortError(t *testing.T) {
	tr, boot := newEuno(t, combineTestConfig())
	tr.Put(boot, 1, 1)
	want := fmt.Errorf("disk gone")
	tr.SetGroupCommitter(failingGroups{want})
	if handled, found, err := tr.TryCombineDelete(boot, 2); !handled || found || err != want {
		t.Fatalf("missed delete = handled %v, found %v, err %v; want true, false, %v", handled, found, err, want)
	}
	if handled, found, err := tr.TryCombineDelete(boot, 1); !handled || !found || err != want {
		t.Fatalf("applied delete = handled %v, found %v, err %v; want true, true, %v", handled, found, err, want)
	}
}

// TestCombineScheduleFuzz is the schedule-exploration fuzz of
// schedfuzz_test.go with combining on: every interleaving must preserve
// the last-writer-tag model and the structural invariants.
func TestCombineScheduleFuzz(t *testing.T) {
	var handoffs, batches uint64
	for _, slack := range []uint64{0, 7, 63, 511} {
		for seed := uint64(1); seed <= 3; seed++ {
			slack, seed := slack, seed
			t.Run(fmt.Sprintf("slack=%d/seed=%d", slack, seed), func(t *testing.T) {
				a := simmem.NewArena(1 << 23)
				h := htm.New(a, htm.DefaultConfig)
				boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
				tr := New(h, boot, combineTestConfig())
				const keys = 64 // small universe: hot leaves, real bursts
				sim := vclock.NewSim(6, slack)
				sim.Run(func(p *vclock.SimProc) {
					th := h.NewThread(p, seed*1000+uint64(p.ID()))
					r := vclock.NewRand(seed*77 + uint64(p.ID()))
					for i := 0; i < 400; i++ {
						k := uint64(r.Intn(keys)) + 1
						switch r.Intn(8) {
						case 0:
							tr.Delete(th, k)
						case 1, 2, 3, 4:
							tr.Put(th, k, k<<16|uint64(p.ID()))
						default:
							if v, ok := tr.Get(th, k); ok {
								if v>>16 != k || v&0xffff >= 6 {
									t.Errorf("get(%d) = %#x: foreign value", k, v)
								}
							}
						}
					}
				})
				for k := uint64(1); k <= keys; k++ {
					if v, ok := tr.Get(boot, k); ok && (v>>16 != k || v&0xffff >= 6) {
						t.Fatalf("final get(%d) = %#x", k, v)
					}
				}
				if err := tr.Validate(boot.P); err != nil {
					t.Fatal(err)
				}
				handoffs += tr.CombinerHandoffs()
				batches += tr.CombinedBatches()
			})
		}
	}
	if batches == 0 {
		t.Fatal("no schedule produced a combined batch")
	}
	if handoffs == 0 {
		t.Fatal("no schedule produced a combiner handoff (bursts never met)")
	}
}

// TestCombineElimination hammers one key with concurrent inserts and
// deletes: across the schedule variations some insert+delete pairs must
// annihilate without touching the leaf, and the key's final state must
// stay consistent with some linearization.
func TestCombineElimination(t *testing.T) {
	var eliminated uint64
	for _, slack := range []uint64{0, 7, 63, 511} {
		for seed := uint64(1); seed <= 4; seed++ {
			a := simmem.NewArena(1 << 22)
			h := htm.New(a, htm.DefaultConfig)
			boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
			tr := New(h, boot, combineTestConfig())
			const hot = uint64(42)
			sim := vclock.NewSim(4, slack)
			sim.Run(func(p *vclock.SimProc) {
				th := h.NewThread(p, seed*1000+uint64(p.ID()))
				for i := 0; i < 200; i++ {
					if p.ID()%2 == 0 {
						tr.Put(th, hot, uint64(p.ID())<<8|1)
					} else {
						tr.Delete(th, hot)
					}
				}
			})
			if v, ok := tr.Get(boot, hot); ok && (v&1) != 1 {
				t.Fatalf("slack=%d seed=%d: corrupted survivor value %#x", slack, seed, v)
			}
			if err := tr.Validate(boot.P); err != nil {
				t.Fatal(err)
			}
			eliminated += tr.EliminatedPairs()
		}
	}
	if eliminated == 0 {
		t.Fatal("no schedule eliminated an insert+delete pair")
	}
	t.Logf("eliminated %d pairs across schedules", eliminated)
}

// TestCombineAbsenceProofBlocksPresentKeys checks the elimination guard
// directly: while a key is present its mark count is nonzero, so a
// same-key put+delete pair must NOT annihilate — the delete must remove
// the preloaded record.
func TestCombineAbsenceProofBlocksPresentKeys(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		a := simmem.NewArena(1 << 22)
		h := htm.New(a, htm.DefaultConfig)
		boot := h.NewThread(vclock.NewWallProc(0, 0), 1)
		tr := New(h, boot, combineTestConfig())
		const hot = uint64(42)
		tr.Put(boot, hot, 7) // present: marks nonzero
		sim := vclock.NewSim(2, 31)
		sim.Run(func(p *vclock.SimProc) {
			th := h.NewThread(p, seed*1000+uint64(p.ID()))
			if p.ID() == 0 {
				tr.Put(th, hot, 9)
			} else {
				if !tr.Delete(th, hot) {
					// The only delete racing one put of a present key: it
					// must observe either the preloaded or the new record.
					t.Error("delete of a present key reported absent")
				}
			}
		})
		if tr.EliminatedPairs() != 0 {
			t.Fatalf("seed %d: eliminated a pair while the key was present", seed)
		}
		// Final state: put-then-delete leaves it absent; delete-then-put
		// leaves 9. Both linearizations are fine; a surviving 7 is not.
		if v, ok := tr.Get(boot, hot); ok && v != 9 {
			t.Fatalf("seed %d: stale value %d survived", seed, v)
		}
	}
}
