// Package sim implements a discrete-event simulation kernel with a virtual
// clock. Simulated threads ("entities") are real goroutines executing real
// code; only *time* is virtual. An entity is either running (executing Go
// code on the host), ready (runnable, awaiting dispatch) or blocked
// (waiting on the virtual clock or on a sim-aware synchronization
// primitive).
//
// Scheduling is cooperative and serial: at most one entity executes at a
// time. Entities made runnable — woken by a primitive, newly spawned, or
// released by a canceled alarm — join a FIFO ready queue, and the next one
// is dispatched only when the current runner blocks or exits. When nothing
// is runnable the clock advances to the earliest pending wakeup and
// dispatches that single waiter. Serial dispatch makes every arrival order
// in the simulation — mutex queues, CPU core assignment, channel handoffs —
// a pure function of virtual state rather than of host scheduling, so a
// run's virtual timeline is reproducible on any host.
//
// Rules for code running under the simulator:
//
//   - All cross-entity blocking must use sim primitives (Mutex, Cond, Chan,
//     WaitGroup) or clock waits. Host sync primitives may be used only for
//     critical sections that never block on a sim primitive while held.
//   - Every goroutine that touches sim primitives must be spawned with
//     Env.Go (or driven through Env.Run).
//
// Virtual time is int64 nanoseconds since simulation start.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// waiter states (guarded by Clock.mu).
const (
	waiterPending = iota
	waiterFired
	waiterCanceled
)

// Gate is where one blocked entity's goroutine waits on the host. Every
// park has exactly one receiver and exactly one wake, so the channel has
// capacity 1 and is opened by a send, which leaves it empty: a gate is
// reusable the moment its owner has passed it, and parking allocates
// nothing. Obtain one with NewGate, publish it where the waker will find
// it, then Park; the waker hands it to Clock.Ready.
type Gate struct {
	ch    chan struct{}
	armed bool // a Ready is owed; set by NewGate, cleared by Ready under Clock.mu
}

func newGate() Gate { return Gate{ch: make(chan struct{}, 1)} }

var gates = sync.Pool{New: func() any { g := newGate(); return &g }}

// NewGate returns a recycled gate, armed for one Park/Ready pair. Park
// recycles it, so the caller must drop every reference once Ready has been
// called.
func NewGate() *Gate {
	g := gates.Get().(*Gate)
	g.armed = true
	return g
}

type waiter struct {
	gate   Gate
	at     Time
	seq    uint64 // tie-break so equal timestamps wake FIFO
	where  string // description for deadlock reports
	state  int    // pending / fired / canceled
	parked bool   // owner is inside Alarm.Wait (alarms only)
}

// sleepWaiters recycles the waiters of Sleep and WaitUntil, one per
// modeled CPU charge. Alarms are handed to their caller and stay unpooled.
var sleepWaiters = sync.Pool{New: func() any { return &waiter{gate: newGate()} }}

type waitHeap []*waiter

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h waitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waitHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waitHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Clock is the virtual clock and scheduler shared by all entities of one
// simulation.
type Clock struct {
	mu      sync.Mutex
	now     Time
	runners int         // entities currently dispatched (0 or 1)
	blocked int         // entities blocked on non-clock sim primitives
	ready   ring[*Gate] // FIFO of runnable entities awaiting dispatch
	seq     uint64
	heap    waitHeap
	stalled map[string]int // where -> count, for deadlock diagnostics
	active  int            // drivers currently inside Env.Run
	dead    bool
}

// NewClock returns a fresh virtual clock at time zero.
func NewClock() *Clock {
	return &Clock{stalled: make(map[string]int)}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// dispatchLocked hands the run slot to the longest-ready entity.
// Caller holds c.mu and has established runners == 0.
func (c *Clock) dispatchLocked() {
	c.runners++
	c.openLocked(c.ready.pop())
}

// openLocked lets the entity waiting at g run. A gate found already open
// was woken twice — the second wake would otherwise surface later as a
// spurious wakeup of whoever reuses the gate — so fail here, with c.mu
// released for the deferred exits the panic unwinds through.
func (c *Clock) openLocked(g *Gate) {
	select {
	case g.ch <- struct{}{}:
	default:
		c.mu.Unlock()
		panic("sim: gate opened twice")
	}
}

// pass waits at g until the scheduler opens it, then recycles it.
func (g *Gate) pass() {
	<-g.ch
	gates.Put(g)
}

// join registers a new entity (spawned goroutine or Run driver) and
// returns the gate the scheduler opens when it dispatches it.
func (c *Clock) join() *Gate {
	g := gates.Get().(*Gate)
	c.mu.Lock()
	c.ready.push(g)
	// An idle simulation (no current runner) has nothing that will reach a
	// dispatch point, so dispatch here; this is how the first entity starts.
	if c.runners == 0 {
		c.dispatchLocked()
	}
	c.mu.Unlock()
	return g
}

// exit deregisters the running entity, dispatching the next one.
func (c *Clock) exit() {
	c.mu.Lock()
	c.runners--
	dead := c.maybeAdvanceLocked()
	c.mu.Unlock()
	if dead != "" {
		panic("sim: deadlock — all entities blocked: " + dead)
	}
}

// Sleep blocks the calling entity for d of virtual time.
func (c *Clock) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.sleepUntilLocked(c.now+Time(d), "sleep")
}

// WaitUntil blocks the calling entity until virtual time t.
func (c *Clock) WaitUntil(t Time) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	c.sleepUntilLocked(t, "waitUntil")
}

// sleepUntilLocked enqueues the caller on the wait heap and releases the
// clock lock. The caller must hold c.mu.
func (c *Clock) sleepUntilLocked(t Time, where string) {
	w := sleepWaiters.Get().(*waiter)
	w.at, w.seq, w.where, w.state = t, c.seq, where, waiterPending
	c.seq++
	heap.Push(&c.heap, w)
	c.runners--
	dead := c.maybeAdvanceLocked()
	c.mu.Unlock()
	if dead != "" {
		panic("sim: deadlock — all entities blocked: " + dead)
	}
	<-w.gate.ch
	sleepWaiters.Put(w)
}

// Park blocks the calling entity on an external primitive (mutex queue,
// channel, ...) until the primitive hands g to Ready. The caller obtained
// g from NewGate and published it to its waker before parking; g is
// recycled on return. where describes the wait site for deadlock reports.
func (c *Clock) Park(where string, g *Gate) {
	c.mu.Lock()
	c.runners--
	c.blocked++
	c.stalled[where]++
	dead := c.maybeAdvanceLocked()
	c.mu.Unlock()
	if dead != "" {
		panic("sim: deadlock — all entities blocked: " + dead)
	}
	g.pass()
}

// Ready marks the entity parked (or about to park) at g as runnable: it
// joins the dispatch queue and passes the gate when it is dispatched. The
// waker keeps the run slot and continues; this is what keeps wake order a
// function of program order rather than of host scheduling. A second
// Ready for one park panics.
func (c *Clock) Ready(where string, g *Gate) {
	c.mu.Lock()
	if !g.armed {
		c.mu.Unlock()
		panic("sim: Ready on a gate nobody is parked at (woken twice?): " + where)
	}
	g.armed = false
	c.blocked--
	c.stalled[where]--
	c.ready.push(g)
	// Wakes from host (non-entity) code while the simulation is idle must
	// dispatch here or the wake would be lost.
	if c.runners == 0 {
		c.dispatchLocked()
	}
	c.mu.Unlock()
}

// maybeAdvanceLocked dispatches the next ready entity if no entity is
// running, advancing virtual time to the earliest pending wakeup when the
// ready queue is empty. It returns a non-empty diagnostic when the
// simulation is deadlocked; the caller must release c.mu before panicking.
// Caller holds c.mu.
func (c *Clock) maybeAdvanceLocked() (deadlock string) {
	if c.runners > 0 || c.dead {
		return ""
	}
	if c.ready.len() > 0 {
		c.dispatchLocked()
		return ""
	}
	// Canceled alarms are heap garbage; drop them before deciding.
	for len(c.heap) > 0 && c.heap[0].state == waiterCanceled {
		heap.Pop(&c.heap)
	}
	if len(c.heap) == 0 {
		if c.blocked > 0 && c.active > 0 {
			// A driver is inside Run, every entity is parked on a
			// primitive, and nothing is scheduled to wake: the
			// simulation cannot make progress. (With no active driver,
			// parked service entities are just idle, not deadlocked.)
			c.dead = true
			return c.stallReportLocked()
		}
		return ""
	}
	// Wake the single earliest waiter; later waiters at the same instant
	// dispatch one at a time as earlier ones block again.
	w := heap.Pop(&c.heap).(*waiter)
	w.state = waiterFired
	c.now = w.at
	c.runners++
	c.openLocked(&w.gate)
	return ""
}

// Alarm is a cancellable virtual-time wakeup. The owning entity schedules
// it with NewAlarm, then parks in Wait; any other entity may Cancel it
// early, waking the owner before the deadline. Unlike spawning a timer
// entity, a canceled alarm leaves no pending wakeup behind, so it never
// drags the virtual clock out to its deadline.
type Alarm struct {
	c *Clock
	w *waiter
}

// NewAlarm schedules a wakeup for the calling entity at virtual time t
// (clamped to now). The entity must follow with Wait before blocking on
// anything else.
func (c *Clock) NewAlarm(t Time, where string) *Alarm {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		t = c.now
	}
	w := &waiter{gate: newGate(), at: t, seq: c.seq, where: where}
	c.seq++
	heap.Push(&c.heap, w)
	return &Alarm{c: c, w: w}
}

// Wait parks the owning entity until the alarm fires or is canceled. It
// returns true if the deadline fired, false if Cancel woke it early.
func (a *Alarm) Wait() bool {
	c := a.c
	c.mu.Lock()
	if a.w.state == waiterCanceled {
		// Canceled before the owner parked: return without ever leaving
		// the run slot; the heap entry is dropped as garbage.
		c.mu.Unlock()
		return false
	}
	a.w.parked = true
	c.runners--
	dead := c.maybeAdvanceLocked()
	c.mu.Unlock()
	if dead != "" {
		panic("sim: deadlock — all entities blocked: " + dead)
	}
	<-a.w.gate.ch
	c.mu.Lock()
	fired := a.w.state == waiterFired
	c.mu.Unlock()
	return fired
}

// Cancel wakes the alarm's owner before the deadline. Calling it after
// the alarm fired (or cancelling twice) is a no-op. Cancel may be called
// before the owner reaches Wait; the runner accounting still balances.
func (a *Alarm) Cancel() {
	c := a.c
	c.mu.Lock()
	if a.w.state != waiterPending {
		c.mu.Unlock()
		return
	}
	a.w.state = waiterCanceled
	if a.w.parked {
		// The owner is parked in Wait; hand it to the dispatch queue.
		c.ready.push(&a.w.gate)
		if c.runners == 0 {
			c.dispatchLocked()
		}
	}
	c.mu.Unlock()
}

func (c *Clock) stallReportLocked() string {
	keys := make([]string, 0, len(c.stalled))
	for k, n := range c.stalled {
		if n != 0 { // Ready leaves drained sites in the map
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s×%d ", k, c.stalled[k])
	}
	return b.String()
}
