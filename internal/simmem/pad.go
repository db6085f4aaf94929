package simmem

import "sync/atomic"

// PaddedUint64 is an atomic counter followed by enough padding to push the
// next struct field onto a different cache line.
//
// In the emulator this is irrelevant — false sharing is *modeled* by the
// per-line version metadata, not suffered. Under goroutines on host procs
// the arena's control words are real shared memory hammered by real cores,
// so a hot word that shares a line with another hot word causes genuine
// coherence ping-ponging. The global version clock (bumped by every committing
// writer) next to the allocation bump pointer was the worst offender: an
// allocating thread would invalidate every committer's cached line and vice
// versa. See BenchmarkFalseSharing in pad_test.go for the measured delta.
type PaddedUint64 struct {
	atomic.Uint64
	_ [LineBytes - 8]byte
}
