package sim

import "sync"

// Env is one simulation world: a virtual clock plus bookkeeping for the
// entities that live in it. All components of a simulated deployment
// (compute nodes, memory nodes, benchmark drivers) share one Env.
type Env struct {
	clock *Clock
	seed  int64
	wg    sync.WaitGroup
}

// NewEnv creates a fresh simulation world at virtual time zero with the
// default seed.
func NewEnv() *Env {
	return NewEnvSeed(DefaultSeed)
}

// NewEnvSeed creates a fresh simulation world whose injected faults and
// retry jitter derive deterministically from seed (see Mix64).
func NewEnvSeed(seed int64) *Env {
	return &Env{clock: NewClock(), seed: seed}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.clock.Now() }

// Sleep advances the calling entity by d of virtual time.
func (e *Env) Sleep(d Duration) { e.clock.Sleep(d) }

// WaitUntil blocks the calling entity until virtual time t.
func (e *Env) WaitUntil(t Time) { e.clock.WaitUntil(t) }

// Go spawns fn as a new simulated entity. The entity joins the scheduler's
// ready queue when Go returns and starts executing at its first dispatch
// (when the spawning entity next blocks, or immediately if nothing runs).
func (e *Env) Go(fn func()) {
	e.wg.Add(1)
	gate := e.clock.join()
	go func() {
		defer e.wg.Done()
		defer e.clock.exit()
		gate.pass()
		fn()
	}()
}

// Run registers the calling goroutine as a driver entity, runs fn, then
// deregisters. Use it to drive a simulation from a test or main goroutine.
// Deadlock detection is armed only while at least one driver is inside
// Run: service entities parked on empty queues between Runs are idle, not
// deadlocked.
func (e *Env) Run(fn func()) {
	e.clock.mu.Lock()
	e.clock.active++
	e.clock.mu.Unlock()
	e.clock.join().pass()
	defer func() {
		e.clock.mu.Lock()
		e.clock.active--
		e.clock.mu.Unlock()
		e.clock.exit()
	}()
	fn()
}

// Wait blocks the host goroutine until every entity spawned with Go has
// returned. It must be called from outside the simulation (not from an
// entity), typically after Run.
func (e *Env) Wait() { e.wg.Wait() }

// Clock exposes the underlying virtual clock.
func (e *Env) Clock() *Clock { return e.clock }
