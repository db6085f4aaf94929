// rangescan demonstrates the ordered-index side of Euno-B+Tree: although
// records live scattered across leaf segments (unsorted between segments),
// range queries still deliver keys in order — one transaction walks a few
// adjacent leaves, merging each leaf's segments with its stable region into
// the scanning thread's own buffer, and the scan emits the result once it
// commits (Section 4.2.4, without the paper's leaf lock).
//
// The scenario is a time-series event log: concurrent appenders write
// timestamped events while a reader issues windowed range queries.
package main

import (
	"fmt"
	"log"

	"eunomia"
)

func main() {
	db, err := eunomia.Open(eunomia.Options{ArenaWords: 1 << 22})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Concurrent appenders (virtual time): 8 writers interleave events,
	// each tagging values with its writer id.
	const writers, events = 8, 2_000
	res := db.RunVirtual(writers, func(t *eunomia.Thread) {
		id := uint64(0)
		for i := 0; i < events; i++ {
			// Timestamps interleave across writers: 8, 16, 24, ...
			ts := uint64(i)*writers + id + 1
			if err := t.Put(ts, ts<<8|id); err != nil {
				log.Fatal(err)
			}
			id = (id + 1) % writers
		}
	})
	fmt.Printf("appended %d events in %.2f ms of virtual time (%d aborts)\n\n",
		writers*events, res.Seconds*1e3, res.Stats.Aborts)

	reader := db.NewThread()

	// Windowed range query: 20 events starting at timestamp 5000.
	fmt.Println("window [5000, ...), 20 events:")
	prev := uint64(0)
	n, _ := reader.Scan(5000, 20, func(ts, val uint64) bool {
		if ts < prev {
			log.Fatalf("scan out of order: %d after %d", ts, prev)
		}
		prev = ts
		fmt.Printf("  ts=%-6d payload=%#x\n", ts, val)
		return true
	})
	fmt.Printf("visited %d events, strictly ascending\n\n", n)

	// Aggregate over a large window: count events per writer.
	var perWriter [writers]int
	reader.Scan(1, 100_000, func(ts, val uint64) bool {
		perWriter[val&0xff]++
		return true
	})
	fmt.Println("events per writer over the full log:")
	for w, c := range perWriter {
		fmt.Printf("  writer %d: %d\n", w, c)
	}

	m := db.Metrics().Memory
	fmt.Printf("\nreserved-keys buffers after scans: %d B (scans stage nothing in the arena)\n", m.ReservedBytes)
}
