package eunomia_test

import (
	"fmt"

	"eunomia"
)

// Example demonstrates basic point operations.
func Example() {
	db, err := eunomia.Open(eunomia.Options{ArenaWords: 1 << 20})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	th := db.NewThread()
	th.Put(7, 700)
	if v, ok, _ := th.Get(7); ok {
		fmt.Println("value:", v)
	}
	th.Delete(7)
	_, ok, _ := th.Get(7)
	fmt.Println("present after delete:", ok)
	// Output:
	// value: 700
	// present after delete: false
}

// ExampleThread_Scan shows ordered range queries over the partitioned
// leaves.
func ExampleThread_Scan() {
	db, _ := eunomia.Open(eunomia.Options{ArenaWords: 1 << 20})
	defer db.Close()
	th := db.NewThread()
	for k := uint64(10); k <= 50; k += 10 {
		th.Put(k, k*k)
	}
	th.Scan(15, 3, func(k, v uint64) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 20 400
	// 30 900
	// 40 1600
}

// ExampleThread_Range is the range-over-func form of Scan: iterate the
// key/value pairs in a closed interval [from, to] with a plain for-range
// loop. Scan remains the right call when you want an explicit count limit
// or need the closed-DB error.
func ExampleThread_Range() {
	db, _ := eunomia.Open(eunomia.Options{ArenaWords: 1 << 20})
	defer db.Close()
	th := db.NewThread()
	for k := uint64(10); k <= 50; k += 10 {
		th.Put(k, k*k)
	}
	for k, v := range th.Range(15, 40) {
		fmt.Println(k, v)
	}
	// Output:
	// 20 400
	// 30 900
	// 40 1600
}

// ExampleDB_Metrics reads the unified metrics snapshot: transactional
// counters with the abort-reason decomposition, resilience, memory, tree
// maintenance, durability, and (when enabled) the contention heatmap —
// one coherent view replacing the per-subsystem accessors.
func ExampleDB_Metrics() {
	db, _ := eunomia.Open(eunomia.Options{
		ArenaWords:    1 << 20,
		Observability: eunomia.Observability{Heatmap: true},
	})
	defer db.Close()
	th := db.NewThread()
	for i := uint64(0); i < 100; i++ {
		th.Put(i, i)
	}
	m := db.Metrics()
	fmt.Println("committed:", m.Tx.Commits > 0)
	fmt.Println("live bytes tracked:", m.Memory.LiveBytes > 0)
	fmt.Println("heatmap enabled:", m.Contention.Enabled)
	// Output:
	// committed: true
	// live bytes tracked: true
	// heatmap enabled: true
}

// ExampleDB_RunVirtual runs a deterministic parallel workload in virtual
// time: sixteen virtual cores insert disjoint ranges concurrently.
func ExampleDB_RunVirtual() {
	db, _ := eunomia.Open(eunomia.Options{ArenaWords: 1 << 22})
	res := db.RunVirtual(16, func(t *eunomia.Thread) {
		// Each virtual core gets its own Thread; stats are aggregated.
		for i := uint64(0); i < 100; i++ {
			t.Put(i*16+1, i)
		}
	})
	fmt.Println("committed operations:", res.Stats.Commits > 0)
	fmt.Println("virtual time advanced:", res.Cycles > 0)
	// Output:
	// committed operations: true
	// virtual time advanced: true
}

// ExampleOptions builds the baseline HTM-B+Tree with its retry loop
// hardened: an operation that aborts on a held fallback lock waits for the
// lock to clear instead of retrying into it.
func ExampleOptions() {
	db, err := eunomia.Open(eunomia.Options{
		Kind:       eunomia.HTMBTree,
		Resilience: true,
		ArenaWords: 1 << 20,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(db.Kind())
	// Output:
	// HTM-B+Tree
}
