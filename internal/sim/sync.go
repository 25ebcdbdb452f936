package sim

// WaitQ is a FIFO queue of blocked processes: the simulation kernel's
// condition variable. The zero value is ready to use; Name is optional
// and only improves deadlock diagnostics.
type WaitQ struct {
	Name  string
	procs []*Proc
}

// WakeOne makes the longest-waiting process runnable. It reports whether
// a process was woken. Safe from process or scheduler context.
func (q *WaitQ) WakeOne() bool {
	for len(q.procs) > 0 {
		p := q.procs[0]
		copy(q.procs, q.procs[1:])
		q.procs = q.procs[:len(q.procs)-1]
		if p.state != stateBlocked {
			continue
		}
		p.state = stateReady
		p.sim.readyPush(p)
		return true
	}
	return false
}

// WakeAll makes every parked process runnable.
func (q *WaitQ) WakeAll() {
	for q.WakeOne() {
	}
}

// Semaphore is a counting semaphore in virtual time. Unlike a classic
// semaphore its count may be consumed in arbitrary units, which models
// the paper's per-file write limit: "essentially a counting semaphore in
// the inode" measured in bytes of outstanding write I/O.
type Semaphore struct {
	n int64
	q WaitQ
}

// NewSemaphore returns a semaphore holding n units.
func NewSemaphore(name string, n int64) *Semaphore {
	return &Semaphore{n: n, q: WaitQ{Name: name}}
}

// Value returns the units currently available.
func (sem *Semaphore) Value() int64 { return sem.n }

// P acquires n units, blocking the calling process until available.
func (sem *Semaphore) P(p *Proc, n int64) {
	for sem.n < n {
		p.Block(&sem.q)
	}
	sem.n -= n
}

// V releases n units and wakes all waiters to re-check. It is safe from
// scheduler context (e.g. an I/O-completion callback).
func (sem *Semaphore) V(n int64) {
	sem.n += n
	sem.q.WakeAll()
}

// Resource is a single-owner resource (a CPU, a disk arm) with FIFO
// queueing and utilization accounting.
type Resource struct {
	Name string
	busy bool
	q    WaitQ

	acquiredAt Time
	busyTime   Time
	sim        *Sim
	uses       int64
}

// NewResource returns an idle resource.
func NewResource(s *Sim, name string) *Resource {
	return &Resource{Name: name, sim: s, q: WaitQ{Name: name}}
}

// Acquire takes exclusive ownership, blocking while another process holds
// the resource.
func (r *Resource) Acquire(p *Proc) {
	for r.busy {
		p.Block(&r.q)
	}
	r.busy = true
	r.acquiredAt = r.sim.now
	r.uses++
}

// Release gives up ownership and wakes the next waiter.
func (r *Resource) Release() {
	r.busyTime += r.sim.now - r.acquiredAt
	r.busy = false
	r.q.WakeOne()
}

// Use acquires the resource, holds it for d of virtual time, and releases
// it: the basic "consume CPU" primitive.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// BusyTime returns the cumulative time the resource has been held.
func (r *Resource) BusyTime() Time { return r.busyTime }

// Uses returns how many times the resource has been acquired.
func (r *Resource) Uses() int64 { return r.uses }

// Utilization returns busy time as a fraction of the interval [0, now].
func (r *Resource) Utilization() float64 {
	if r.sim.now == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.sim.now)
}
