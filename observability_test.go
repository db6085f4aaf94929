package eunomia

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// countingObserver tallies events by kind, safe for concurrent delivery.
type countingObserver struct {
	counts [NumEventKinds]atomic.Uint64
}

func (c *countingObserver) Event(e Event) { c.counts[e.Kind].Add(1) }

func (c *countingObserver) get(k EventKind) uint64 { return c.counts[k].Load() }

// contendedVirtual runs a deterministic contended workload and returns
// its result: every core hammers the same small key range, so aborts,
// fallbacks and stitches all fire.
func contendedVirtual(t *testing.T, opts Options) VirtualResult {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	return db.RunVirtual(8, func(th *Thread) {
		for i := uint64(0); i < 300; i++ {
			k := i % 16
			switch i % 4 {
			case 0, 1:
				th.Put(k, i)
			case 2:
				th.Get(k)
			case 3:
				th.Delete(k)
			}
		}
	})
}

// TestObservabilityZeroVirtualImpact is the zero-cost guarantee at test
// level: the identical contended virtual-time workload must produce
// bit-identical metrics with observability disabled, with a user Observer
// attached, and with the built-in heatmap on. Observer callbacks never
// advance the virtual clock, so even *enabled* observability cannot move
// a figure — and the disabled case is what the golden fig1/fig8 CSVs pin
// against the seed (scripts/golden.sh).
func TestObservabilityZeroVirtualImpact(t *testing.T) {
	base := Options{ArenaWords: 1 << 21}
	plain := contendedVirtual(t, base)

	obs := base
	co := &countingObserver{}
	obs.Observability = Observability{Observer: co, Heatmap: true}
	observed := contendedVirtual(t, obs)

	if plain.Cycles != observed.Cycles {
		t.Fatalf("observer moved virtual time: %d != %d cycles", plain.Cycles, observed.Cycles)
	}
	if !reflect.DeepEqual(plain.Stats, observed.Stats) {
		t.Fatalf("observer changed stats:\nplain:    %+v\nobserved: %+v", plain.Stats, observed.Stats)
	}
	if co.get(EvTxBegin) == 0 || co.get(EvTxAbort) == 0 {
		t.Fatalf("observer saw no traffic: begins=%d aborts=%d",
			co.get(EvTxBegin), co.get(EvTxAbort))
	}
}

// TestObserverEventAccounting: the event stream and the aggregated
// counters must tell the same story — one EvTxBegin per attempt, one
// EvTxCommit per commit, one EvTxAbort per abort, one EvFallback per
// fallback execution, across boot, preload and the contended phase.
func TestObserverEventAccounting(t *testing.T) {
	co := &countingObserver{}
	db, err := Open(Options{ArenaWords: 1 << 21,
		Observability: Observability{Observer: co, Heatmap: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.RunVirtual(6, func(th *Thread) {
		for i := uint64(0); i < 400; i++ {
			th.Put(i%8, i)
		}
	})
	m := db.Metrics()
	if co.get(EvTxBegin) != m.Tx.Attempts {
		t.Fatalf("begin events %d != attempts %d", co.get(EvTxBegin), m.Tx.Attempts)
	}
	if co.get(EvTxCommit) != m.Tx.Commits {
		t.Fatalf("commit events %d != commits %d", co.get(EvTxCommit), m.Tx.Commits)
	}
	if co.get(EvTxAbort) != m.Tx.Aborts {
		t.Fatalf("abort events %d != aborts %d", co.get(EvTxAbort), m.Tx.Aborts)
	}
	if co.get(EvFallback) != m.Tx.Fallbacks {
		t.Fatalf("fallback events %d != fallbacks %d", co.get(EvFallback), m.Tx.Fallbacks)
	}
	var byReason uint64
	for _, n := range m.Tx.AbortsByReason {
		byReason += n
	}
	if byReason != m.Tx.Aborts {
		t.Fatalf("AbortsByReason sums to %d, want %d", byReason, m.Tx.Aborts)
	}
	// The heatmap rode the same chain: every abort was offered to it.
	if m.Contention.AbortsSeen != m.Tx.Aborts {
		t.Fatalf("heatmap saw %d aborts, device counted %d",
			m.Contention.AbortsSeen, m.Tx.Aborts)
	}
	if m.Tx.Aborts > 0 && len(m.Contention.HotLeaves) == 0 {
		t.Fatal("aborts occurred but the hot-leaf table is empty")
	}
}

// TestObserverConcurrentWall delivers observer callbacks from racing
// wall-clock goroutines — the shape the race detector must bless (run
// under -race via scripts/verify.sh).
func TestObserverConcurrentWall(t *testing.T) {
	co := &countingObserver{}
	db, err := Open(Options{ArenaWords: 1 << 21,
		Observability: Observability{Observer: co, Heatmap: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const workers, ops = 6, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := db.NewThread()
			for i := uint64(0); i < ops; i++ {
				switch i % 3 {
				case 0:
					th.Put(i%32, i)
				case 1:
					th.Get(i % 32)
				case 2:
					th.Delete(i % 32)
				}
			}
		}(w)
	}
	wg.Wait()
	m := db.Metrics()
	if co.get(EvTxBegin) != m.Tx.Attempts || co.get(EvTxCommit) != m.Tx.Commits {
		t.Fatalf("event/counter mismatch: begins=%d attempts=%d commits(ev)=%d commits=%d",
			co.get(EvTxBegin), m.Tx.Attempts, co.get(EvTxCommit), m.Tx.Commits)
	}
	if m.Tx.Commits < workers*ops {
		t.Fatalf("commits = %d, want >= %d", m.Tx.Commits, workers*ops)
	}
}

// TestMetricsUnifiedSnapshot: DB.Metrics covers every subsystem in one
// call, and the deprecated per-subsystem accessors delegate to it.
func TestMetricsUnifiedSnapshot(t *testing.T) {
	db, err := Open(Options{ArenaWords: 1 << 21, Resilience: true,
		Durability:    Durability{Dir: t.TempDir()},
		Observability: Observability{Heatmap: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	th := db.NewThread()
	for i := uint64(0); i < 200; i++ {
		if err := th.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Tx.Commits == 0 || m.Tx.Attempts < m.Tx.Commits {
		t.Fatalf("Tx section implausible: %+v", m.Tx)
	}
	if m.Memory.LiveBytes <= 0 || m.Memory.PeakBytes < m.Memory.LiveBytes {
		t.Fatalf("Memory section implausible: %+v", m.Memory)
	}
	if !m.Durability.Enabled || m.Durability.Flushes == 0 {
		t.Fatalf("Durability section missing activity: %+v", m.Durability)
	}
	if m.Tree.Splits == 0 {
		t.Fatalf("Tree section missing splits after 200 sequential puts: %+v", m.Tree)
	}
	if !m.Contention.Enabled {
		t.Fatal("Contention section disabled despite Heatmap: true")
	}

	// Two snapshots must agree on the static parts (flush counters can
	// advance between them).
	m2 := db.Metrics()
	if m2.Durability.Enabled != m.Durability.Enabled ||
		m2.Durability.ReplayedFrames != m.Durability.ReplayedFrames {
		t.Fatalf("Durability drifted: %+v != %+v", m2.Durability, m.Durability)
	}
}

// TestMetricsDisabledSections: with nothing opted in, Metrics still
// returns a coherent snapshot with the optional sections zeroed.
func TestMetricsDisabledSections(t *testing.T) {
	db, err := Open(Options{ArenaWords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	th := db.NewThread()
	th.Put(1, 2)
	m := db.Metrics()
	if m.Contention.Enabled || m.Durability.Enabled {
		t.Fatalf("optional sections enabled without opt-in: %+v", m)
	}
	if m.Tx.Commits == 0 {
		t.Fatal("Tx counters missing")
	}
	if db.observer != nil {
		t.Fatal("observer chain installed despite zero-value Observability")
	}
}
