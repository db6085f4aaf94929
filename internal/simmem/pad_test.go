package simmem

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestPaddedUint64Layout(t *testing.T) {
	if s := unsafe.Sizeof(PaddedUint64{}); s != LineBytes {
		t.Fatalf("PaddedUint64 is %d bytes, want %d (one cache line)", s, LineBytes)
	}
	var arr [2]PaddedUint64
	d := uintptr(unsafe.Pointer(&arr[1])) - uintptr(unsafe.Pointer(&arr[0]))
	if d < LineBytes {
		t.Fatalf("adjacent PaddedUint64s are %d bytes apart, want >= %d", d, LineBytes)
	}
}

// BenchmarkFalseSharing demonstrates why the arena's hot control words are
// padded to their own cache lines: goroutines each hammering a *different*
// counter still serialize on coherence traffic when the counters share a
// line. Run with GOMAXPROCS > 1 to see the packed/padded delta; the padded
// layout is what Arena.clock / Arena.next and the device-stats aggregates
// use.
func BenchmarkFalseSharing(b *testing.B) {
	const slots = 16
	b.Run("packed", func(b *testing.B) {
		var counters [slots]atomic.Uint64
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			c := &counters[next.Add(1)%slots]
			for pb.Next() {
				c.Add(1)
			}
		})
	})
	b.Run("padded", func(b *testing.B) {
		var counters [slots]PaddedUint64
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			c := &counters[next.Add(1)%slots]
			for pb.Next() {
				c.Add(1)
			}
		})
	})
}
