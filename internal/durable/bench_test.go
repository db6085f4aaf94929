package durable

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkLogAck times the acknowledgement path alone: a no-op apply on a
// MemFS with 16 MiB auto-snapshots, under durable-write's mix of 70 % puts
// and 30 % deletes over 200 k keys, for one and two writers. ns/op is per
// operation across all writers.
func BenchmarkLogAck(b *testing.B) {
	for _, writers := range []int{1, 2} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			st, err := Open(Config{FS: NewMemFS(FaultPlan{}), Dir: "db", SnapshotBytes: 16 << 20}, func(Op) {})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			put := func() {}
			del := func() bool { return true }
			scan := func(func(k, v uint64)) error { return nil }
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				wg.Add(1)
				go func(x uint64, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						key := x % 200_000
						var err error
						if x>>32%100 < 70 {
							err = st.LogPut(key, x, put)
						} else {
							_, err = st.LogDelete(key, del)
						}
						if err == nil && st.NeedSnapshot() {
							err = st.Snapshot(scan, true)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(uint64(w)*0x9E3779B97F4A7C15+1, n)
			}
			wg.Wait()
			b.StopTimer()
			s := st.Stats()
			b.ReportMetric(float64(s.Flushes)/float64(b.N), "flushes/op")
		})
	}
}
