package rdma

import (
	"fmt"
	"sync"

	"dlsm/internal/sim"
)

// MemoryRegion is a pinned, NIC-registered buffer. Remote peers address it
// with a (node, rkey, offset) triple; one-sided verbs copy bytes directly
// into or out of it without involving the owning node's CPU.
//
// Synchronization contract: remote writes happen under the region's host
// mutex and bump a generation counter; pollers that observe an update via
// Await* therefore also observe the payload bytes written before it. Code
// that reads region bytes directly (Bytes) must have established visibility
// through some other channel (an RPC reply, a completion event, engine-level
// immutability), exactly like real RDMA programs must.
type MemoryRegion struct {
	node *Node
	rkey uint32
	buf  []byte

	mu       sync.Mutex
	gen      uint64
	watchers []*mrWatcher
}

// mrWatcher is one parked poller: either a plain gate (no
// deadline) or a cancellable alarm (deadline), woken by the next write.
type mrWatcher struct {
	gate  *sim.Gate // nil when alarm is set
	alarm *sim.Alarm
}

// wake releases one parked poller; called after the waking write landed.
func (r *MemoryRegion) wake(w *mrWatcher) {
	if w.alarm != nil {
		w.alarm.Cancel()
		return
	}
	r.node.env().Clock().Ready("mr.poll", w.gate)
}

// RemoteAddr is a wire-transferable pointer into a registered region.
type RemoteAddr struct {
	Node int
	RKey uint32
	Off  int
}

// Add returns the address displaced by n bytes.
func (a RemoteAddr) Add(n int) RemoteAddr {
	a.Off += n
	return a
}

func (a RemoteAddr) String() string {
	return fmt.Sprintf("node%d/rkey%d+%d", a.Node, a.RKey, a.Off)
}

// Size returns the region length in bytes.
func (r *MemoryRegion) Size() int { return len(r.buf) }

// RKey returns the remote-access key peers use to address this region.
func (r *MemoryRegion) RKey() uint32 { return r.rkey }

// Node returns the owning node's id.
func (r *MemoryRegion) Node() int { return r.node.ID }

// Addr returns the remote address of offset off within the region.
func (r *MemoryRegion) Addr(off int) RemoteAddr {
	return RemoteAddr{Node: r.node.ID, RKey: r.rkey, Off: off}
}

// Bytes returns the slice [off, off+n) of the region for direct local
// access. See the type comment for the visibility contract.
func (r *MemoryRegion) Bytes(off, n int) []byte {
	return r.buf[off : off+n]
}

// write is a remote one-sided write into the region (QP worker only).
func (r *MemoryRegion) write(off int, src []byte) {
	r.mu.Lock()
	copy(r.buf[off:off+len(src)], src)
	r.gen++
	watchers := r.watchers
	r.watchers = nil
	r.mu.Unlock()
	for _, w := range watchers {
		r.wake(w)
	}
}

// read is a remote one-sided read out of the region (QP worker only).
func (r *MemoryRegion) read(off int, dst []byte) {
	r.mu.Lock()
	copy(dst, r.buf[off:off+len(dst)])
	r.mu.Unlock()
}

// AwaitByte parks the calling entity until the byte at off equals want.
// This is the simulation analog of CPU-polling a flag that a one-sided
// remote write will set (the paper's general-purpose RPC reply path).
func (r *MemoryRegion) AwaitByte(off int, want byte) {
	r.AwaitByteDeadline(off, want, 0)
}

// AwaitByteDeadline is AwaitByte with a virtual-time deadline: it returns
// true once the byte at off equals want, or false if the deadline passes
// first. deadline <= 0 waits forever. This is how a real poller abandons a
// reply flag when the responder may be dead.
func (r *MemoryRegion) AwaitByteDeadline(off int, want byte, deadline sim.Time) bool {
	env := r.node.env()
	for {
		r.mu.Lock()
		if r.buf[off] == want {
			r.mu.Unlock()
			return true
		}
		if deadline > 0 && env.Now() >= deadline {
			r.mu.Unlock()
			return false
		}
		w := &mrWatcher{}
		if deadline > 0 {
			w.alarm = env.Clock().NewAlarm(deadline, "mr.poll")
		} else {
			w.gate = sim.NewGate()
		}
		r.watchers = append(r.watchers, w)
		r.mu.Unlock()
		if w.alarm != nil {
			if w.alarm.Wait() {
				// Deadline fired first. Retire the watcher and decide by
				// one final flag check: a write may have landed between
				// the alarm firing and this wakeup.
				r.mu.Lock()
				for i, x := range r.watchers {
					if x == w {
						r.watchers = append(r.watchers[:i], r.watchers[i+1:]...)
						break
					}
				}
				ok := r.buf[off] == want
				r.mu.Unlock()
				return ok
			}
			// Canceled by a write: loop and recheck the flag.
		} else {
			env.Clock().Park("mr.poll", w.gate)
		}
	}
}

// SetByte writes a single byte locally under the region lock, waking
// pollers. Used to reset flags between RPCs.
func (r *MemoryRegion) SetByte(off int, b byte) {
	r.mu.Lock()
	r.buf[off] = b
	r.gen++
	watchers := r.watchers
	r.watchers = nil
	r.mu.Unlock()
	for _, w := range watchers {
		r.wake(w)
	}
}
