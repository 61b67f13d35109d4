package sim

import "sync"

// Chan is a bounded FIFO queue whose Send/Recv park simulated entities.
// A capacity of zero makes it a rendezvous channel. Chan[T] is the sim
// analog of a buffered Go channel and is safe for many senders/receivers.
//
// Parking allocates nothing in steady state: the queues are rings, gates
// are pooled, and the slot a sender delivers into is recycled per channel.
type Chan[T any] struct {
	clock  *Clock
	mu     sync.Mutex
	buf    ring[T]
	cap    int
	closed bool
	recvq  ring[*chanWaiter[T]]
	sendq  ring[chanSender[T]]
	free   []*chanWaiter[T] // receive slots between parks
}

// chanWaiter is a parked receiver: the slot a sender (or Close) fills
// before waking it.
type chanWaiter[T any] struct {
	g  *Gate
	v  T
	ok bool
}

// chanSender is a parked sender and the value it is waiting to enqueue.
type chanSender[T any] struct {
	g *Gate
	v T
}

// NewChan returns a channel with the given buffer capacity.
func NewChan[T any](e *Env, capacity int) *Chan[T] {
	return &Chan[T]{clock: e.clock, cap: capacity}
}

// handoffLocked delivers v straight to the longest-parked receiver, if
// there is one. Caller holds c.mu.
func (c *Chan[T]) handoffLocked(v T) bool {
	if c.recvq.len() == 0 {
		return false
	}
	w := c.recvq.pop()
	w.v, w.ok = v, true
	c.clock.Ready("chan.recv", w.g)
	return true
}

// Send enqueues v, parking the entity while the buffer is full.
// Send on a closed channel silently drops the value: channels here model
// hardware queues torn down during shutdown, where in-flight work is
// discarded rather than crashing the machine.
func (c *Chan[T]) Send(v T) {
	c.mu.Lock()
	if c.closed || c.handoffLocked(v) {
		c.mu.Unlock()
		return
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		c.mu.Unlock()
		return
	}
	g := NewGate()
	c.sendq.push(chanSender[T]{g: g, v: v})
	c.mu.Unlock()
	c.clock.Park("chan.send", g)
}

// TrySend enqueues v without blocking, reporting whether it was accepted.
func (c *Chan[T]) TrySend(v T) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.handoffLocked(v) {
		return true // a closed channel drops, as in Send
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// takeLocked dequeues the oldest buffered value and lets the
// longest-parked sender take the freed slot. Caller holds c.mu.
func (c *Chan[T]) takeLocked() (v T, ok bool) {
	if c.buf.len() == 0 {
		return v, false
	}
	v = c.buf.pop()
	if c.sendq.len() > 0 {
		s := c.sendq.pop()
		c.buf.push(s.v)
		c.clock.Ready("chan.send", s.g)
	}
	return v, true
}

// Recv dequeues a value, parking the entity while the channel is empty.
// ok is false if the channel is closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	c.mu.Lock()
	if v, ok = c.takeLocked(); ok {
		c.mu.Unlock()
		return v, true
	}
	if c.sendq.len() > 0 { // zero-capacity rendezvous
		s := c.sendq.pop()
		c.clock.Ready("chan.send", s.g)
		c.mu.Unlock()
		return s.v, true
	}
	if c.closed {
		c.mu.Unlock()
		return v, false
	}
	var w *chanWaiter[T]
	if k := len(c.free) - 1; k >= 0 {
		w, c.free = c.free[k], c.free[:k]
	} else {
		w = new(chanWaiter[T])
	}
	w.g = NewGate()
	c.recvq.push(w)
	c.mu.Unlock()
	c.clock.Park("chan.recv", w.g)
	c.mu.Lock()
	v, ok = w.v, w.ok
	*w = chanWaiter[T]{}
	c.free = append(c.free, w)
	c.mu.Unlock()
	return v, ok
}

// TryRecv dequeues a value without blocking. ok is false if nothing was
// available (empty, or closed and drained).
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.takeLocked()
}

// Close closes the channel; parked receivers wake with ok=false.
func (c *Chan[T]) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for c.recvq.len() > 0 {
		c.clock.Ready("chan.recv", c.recvq.pop().g)
	}
	// Parked senders wake with their values discarded.
	for c.sendq.len() > 0 {
		c.clock.Ready("chan.send", c.sendq.pop().g)
	}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.len()
}
