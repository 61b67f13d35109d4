package sim

import "sync"

// Mutex is a mutual-exclusion lock for simulated entities. Waiting on a
// contended Mutex parks the entity in virtual time (FIFO handoff), so lock
// waits are invisible to the virtual clock until the holder releases.
type Mutex struct {
	clock *Clock
	mu    sync.Mutex
	held  bool
	queue ring[*Gate]
}

// NewMutex returns a Mutex bound to the environment's clock.
func NewMutex(e *Env) *Mutex { return &Mutex{clock: e.clock} }

// Lock acquires m, blocking the calling entity until it is available.
func (m *Mutex) Lock() {
	m.mu.Lock()
	if !m.held {
		m.held = true
		m.mu.Unlock()
		return
	}
	g := NewGate()
	m.queue.push(g)
	m.mu.Unlock()
	m.clock.Park("mutex", g)
}

// TryLock acquires m if it is free, reporting whether it did.
func (m *Mutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases m, handing it directly to the longest waiter if any.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if !m.held {
		m.mu.Unlock()
		panic("sim: unlock of unlocked Mutex")
	}
	if m.queue.len() == 0 {
		m.held = false
		m.mu.Unlock()
		return
	}
	g := m.queue.pop()
	m.mu.Unlock()
	m.clock.Ready("mutex", g) // ownership hands off; held stays true
}

// Cond is a condition variable whose waiters are simulated entities.
// L must be a *Mutex from the same environment.
type Cond struct {
	L     *Mutex
	clock *Clock
	name  string
	mu    sync.Mutex
	queue ring[*Gate]
}

// NewCond returns a condition variable using l as its lock.
func NewCond(e *Env, l *Mutex) *Cond { return &Cond{L: l, clock: e.clock, name: "cond"} }

// NewNamedCond returns a condition variable whose waiters show up under
// name in deadlock reports.
func NewNamedCond(e *Env, l *Mutex, name string) *Cond {
	return &Cond{L: l, clock: e.clock, name: name}
}

// Wait atomically releases c.L, parks the entity until Signal/Broadcast,
// then reacquires c.L before returning.
func (c *Cond) Wait() {
	g := NewGate()
	c.mu.Lock()
	c.queue.push(g)
	c.mu.Unlock()
	c.L.Unlock()
	c.clock.Park(c.name, g)
	c.L.Lock()
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal() {
	c.mu.Lock()
	if c.queue.len() > 0 {
		c.clock.Ready(c.name, c.queue.pop())
	}
	c.mu.Unlock()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	for c.queue.len() > 0 {
		c.clock.Ready(c.name, c.queue.pop())
	}
	c.mu.Unlock()
}

// WaitGroup mirrors sync.WaitGroup for simulated entities.
type WaitGroup struct {
	clock *Clock
	mu    sync.Mutex
	n     int
	queue []*Gate // drained whole, so a slice reused in place suffices
}

// NewWaitGroup returns a WaitGroup bound to the environment's clock.
func NewWaitGroup(e *Env) *WaitGroup { return &WaitGroup{clock: e.clock} }

// Add adds delta to the counter, waking waiters if it reaches zero.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		for i, g := range w.queue {
			w.clock.Ready("waitgroup", g)
			w.queue[i] = nil
		}
		w.queue = w.queue[:0]
	}
	w.mu.Unlock()
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the entity until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	g := NewGate()
	w.queue = append(w.queue, g)
	w.mu.Unlock()
	w.clock.Park("waitgroup", g)
}
