package vclock

import "runtime"

// WallProc is a test clock for real goroutine execution: Tick accumulates a
// local cycle count and optionally yields the OS thread every yieldEvery
// charged cycles, which produces fine-grained interleaving on hosts with
// fewer physical cores than worker goroutines. The library itself runs
// goroutines on HostProc.
type WallProc struct {
	id         int
	clock      uint64
	yieldEvery uint64
	sinceYield uint64
}

// NewWallProc creates a wall-clock proc. yieldEvery of 0 disables
// cooperative yielding.
func NewWallProc(id int, yieldEvery uint64) *WallProc {
	return &WallProc{id: id, yieldEvery: yieldEvery}
}

// ID implements Proc.
func (p *WallProc) ID() int { return p.id }

// Now implements Proc.
func (p *WallProc) Now() uint64 { return p.clock }

// Tick implements Proc.
func (p *WallProc) Tick(cycles uint64) {
	p.clock += cycles
	if p.yieldEvery == 0 {
		return
	}
	p.sinceYield += cycles
	if p.sinceYield >= p.yieldEvery {
		p.sinceYield = 0
		runtime.Gosched()
	}
}

// Spin implements Proc: waiting is charged, and yields, like any work.
func (p *WallProc) Spin(cycles uint64) { p.Tick(cycles) }
