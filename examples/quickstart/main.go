// Quickstart: open a Euno-B+Tree store, do point operations and a range
// query, and inspect transaction statistics.
package main

import (
	"fmt"
	"log"

	"eunomia"
)

func main() {
	db, err := eunomia.Open(eunomia.Options{}) // defaults: Euno-B+Tree, 128 MiB arena
	if err != nil {
		log.Fatal(err)
	}
	// Program against the unified Store interface: *DB satisfies it, and
	// so does the sharded *Cluster — swap eunomia.Open for
	// eunomia.OpenCluster and nothing below changes.
	var store eunomia.Store = db
	defer store.Close()

	// Every worker goroutine gets its own Handle.
	th := store.NewHandle()
	defer th.Close()

	// Point writes and reads.
	for key := uint64(1); key <= 100; key++ {
		if err := th.Put(key, key*key); err != nil {
			log.Fatal(err)
		}
	}
	if v, ok, _ := th.Get(12); ok {
		fmt.Printf("get(12) = %d\n", v)
	}

	// Updates are in-place; deletes tombstone and clean up lazily.
	th.Put(12, 999)
	v, _, _ := th.Get(12)
	fmt.Printf("after update, get(12) = %d\n", v)
	th.Delete(13)
	if _, ok, _ := th.Get(13); !ok {
		fmt.Println("get(13) after delete: not found")
	}

	// Range queries: ordered iteration despite the partitioned leaf
	// layout (a scan merges the segments with the stable run inside one
	// transaction). Scan takes a callback and a count limit; Range is the Go
	// 1.23 iterator form over a closed key interval.
	fmt.Print("scan from 10, 8 keys:")
	th.Scan(10, 8, func(k, v uint64) bool {
		fmt.Printf(" %d", k)
		return true
	})
	fmt.Println()
	fmt.Print("range [20, 25]:")
	for k, v := range th.Range(20, 25) {
		fmt.Printf(" %d=%d", k, v)
	}
	fmt.Println()

	// Store.Metrics is the unified snapshot: transactional counters with
	// the paper's abort decomposition, memory accounting, tree
	// maintenance, and — when enabled — durability and contention
	// sections.
	m := store.Metrics()
	fmt.Printf("stats: %d commits, %d aborts, %d fallbacks\n",
		m.Tx.Commits, m.Tx.Aborts, m.Tx.Fallbacks)
	fmt.Printf("memory: %d B live (%d B CCM)\n",
		m.Memory.LiveBytes, m.Memory.CCMBytes)
}
