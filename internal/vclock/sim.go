package vclock

import "fmt"

// Sim is a deterministic discrete-event multicore simulator. Each virtual
// core runs as one goroutine, but exactly one goroutine executes at any
// moment: control is handed to whichever core currently has the smallest
// local cycle clock (ties broken by core id). Because scheduling depends
// only on charged costs, a run is bit-for-bit reproducible.
//
// The zero value is not usable; construct with NewSim.
type Sim struct {
	procs     []*SimProc
	heap      []*SimProc // min-heap of parked runnable procs, by (clock, id)
	remaining int
	done      chan struct{}
	slack     uint64
	running   bool
}

// SimProc is one virtual core of a Sim. It implements Proc.
type SimProc struct {
	sim   *Sim
	id    int
	clock uint64
	wake  chan struct{}
}

// NewSim creates a simulator with n virtual cores. slack is the number of
// cycles a core may run ahead of the global minimum before it must yield;
// 0 gives exact min-clock interleaving, larger values trade fidelity for
// fewer context switches.
func NewSim(n int, slack uint64) *Sim {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: NewSim with n=%d", n))
	}
	s := &Sim{done: make(chan struct{}), slack: slack}
	s.procs = make([]*SimProc, n)
	for i := range s.procs {
		s.procs[i] = &SimProc{sim: s, id: i, wake: make(chan struct{}, 1)}
	}
	return s
}

// Procs returns the simulator's virtual cores.
func (s *Sim) Procs() []*SimProc { return s.procs }

// Run executes body once per virtual core, in virtual-time lockstep, and
// returns when every body has finished. It must not be called twice on the
// same Sim.
func (s *Sim) Run(body func(p *SimProc)) {
	if s.running {
		panic("vclock: Sim.Run called twice")
	}
	s.running = true
	s.remaining = len(s.procs)
	for _, p := range s.procs {
		p := p
		go func() {
			<-p.wake
			body(p)
			p.finish()
		}()
	}
	// Park everyone, then release the first core. Only the token holder
	// touches the heap, so no further synchronization is needed.
	for _, p := range s.procs {
		s.heapPush(p)
	}
	first := s.heapPop()
	first.wake <- struct{}{}
	<-s.done
}

// MaxClock returns the largest per-core clock, i.e. the virtual makespan of
// the run. Valid after Run returns.
func (s *Sim) MaxClock() uint64 {
	var m uint64
	for _, p := range s.procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// ID implements Proc.
func (p *SimProc) ID() int { return p.id }

// Now implements Proc.
func (p *SimProc) Now() uint64 { return p.clock }

// Tick implements Proc: it charges cycles and, if some parked core now has
// an earlier clock, hands control to it.
func (p *SimProc) Tick(cycles uint64) {
	p.clock += cycles
	s := p.sim
	if len(s.heap) == 0 {
		return
	}
	head := s.heap[0]
	if head.clock+s.slack > p.clock || (head.clock == p.clock && head.id > p.id) {
		return // still the earliest core; keep running
	}
	next := s.heapPop()
	s.heapPush(p)
	next.wake <- struct{}{}
	<-p.wake
}

// Spin implements Proc: waiting costs what it is charged, like any work.
func (p *SimProc) Spin(cycles uint64) { p.Tick(cycles) }

// finish retires the proc: it wakes the next parked core or, if it was the
// last one, signals Run to return.
func (p *SimProc) finish() {
	s := p.sim
	s.remaining--
	if s.remaining == 0 {
		close(s.done)
		return
	}
	if next := s.heapPop(); next != nil {
		next.wake <- struct{}{}
	}
}

// less orders parked procs by (clock, id).
func procLess(a, b *SimProc) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

func (s *Sim) heapPush(p *SimProc) {
	s.heap = append(s.heap, p)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !procLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Sim) heapPop() *SimProc {
	n := len(s.heap)
	if n == 0 {
		return nil
	}
	top := s.heap[0]
	s.heap[0] = s.heap[n-1]
	s.heap[n-1] = nil
	s.heap = s.heap[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && procLess(s.heap[l], s.heap[small]) {
			small = l
		}
		if r < n && procLess(s.heap[r], s.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}
