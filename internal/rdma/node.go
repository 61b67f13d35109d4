package rdma

import (
	"fmt"
	"sync"

	"dlsm/internal/sim"
)

// Message is a two-sided SEND delivered to an endpoint on the target node,
// or an immediate-data notification from WRITE_WITH_IMM.
type Message struct {
	From    int    // sender node id
	Payload []byte // copied payload (nil for pure imm notifications)
	Imm     uint32 // immediate data (WRITE_WITH_IMM, or app-level tag)
}

// Node is one machine attached to the fabric: a CPU core pool plus
// registered memory regions. Compute nodes and memory nodes are both Nodes;
// they differ only in core count, memory size and the software run on them.
type Node struct {
	ID     int
	Name   string
	CPU    *sim.CPU
	fabric *Fabric

	userData sync.Map // per-node extension slots (e.g. the RPC notifier)

	mu        sync.Mutex
	nextRKey  uint32
	mrs       map[uint32]*MemoryRegion
	endpoints map[string]*sim.Chan[Message]
	immQueue  *sim.Chan[Message]
	qps       []*QP
	closed    bool
	crashed   bool
	crashGen  uint64 // incremented by every Crash; see crashGeneration
}

func newNode(f *Fabric, id int, name string, cores int) *Node {
	return &Node{
		ID:        id,
		Name:      name,
		CPU:       sim.NewCPU(f.env, cores),
		fabric:    f,
		nextRKey:  1,
		mrs:       make(map[uint32]*MemoryRegion),
		endpoints: make(map[string]*sim.Chan[Message]),
		immQueue:  sim.NewChan[Message](f.env, 4096),
	}
}

func (n *Node) env() *sim.Env { return n.fabric.env }

// Fabric returns the fabric the node is attached to.
func (n *Node) Fabric() *Fabric { return n.fabric }

// UserData is a per-node extension map for higher layers that need one
// instance of something per node (e.g. the RPC thread notifier). Scoping
// such singletons to the node keeps dead deployments collectible.
func (n *Node) UserData() *sync.Map { return &n.userData }

// Register allocates and registers a memory region of the given size,
// modeling ibv_reg_mr over a freshly allocated pinned buffer. dLSM
// pre-registers large regions and sub-allocates in user space (§X-B);
// internal/remote implements those sub-allocators.
func (n *Node) Register(size int) *MemoryRegion {
	return n.RegisterBuf(make([]byte, size))
}

// RegisterBuf registers an existing buffer.
func (n *Node) RegisterBuf(buf []byte) *MemoryRegion {
	n.mu.Lock()
	defer n.mu.Unlock()
	mr := &MemoryRegion{node: n, rkey: n.nextRKey, buf: buf}
	n.nextRKey++
	n.mrs[mr.rkey] = mr
	return mr
}

// Deregister removes a region from the NIC; subsequent remote access to its
// rkey fails.
func (n *Node) Deregister(mr *MemoryRegion) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.mrs, mr.rkey)
}

// lookupMR resolves an rkey, as the NIC does for incoming one-sided ops.
func (n *Node) lookupMR(rkey uint32) (*MemoryRegion, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	mr, ok := n.mrs[rkey]
	if !ok {
		return nil, fmt.Errorf("rdma: node %d: invalid rkey %d", n.ID, rkey)
	}
	return mr, nil
}

// Endpoint returns the named receive queue for two-sided messages,
// creating it on first use. It models a shared receive queue feeding a
// message dispatcher.
func (n *Node) Endpoint(name string) *sim.Chan[Message] {
	n.mu.Lock()
	if n.closed || n.crashed {
		// A dead node has no receive queues. Hand back a chan that is
		// already closed (and never stored: a restart must mint live ones)
		// so a late consumer observes immediate teardown instead of
		// parking forever on a queue nothing can close.
		n.mu.Unlock()
		ep := sim.NewChan[Message](n.env(), 1)
		ep.Close()
		return ep
	}
	defer n.mu.Unlock()
	ep, ok := n.endpoints[name]
	if !ok {
		ep = sim.NewChan[Message](n.env(), 4096)
		n.endpoints[name] = ep
	}
	return ep
}

// ImmQueue is where WRITE_WITH_IMM notifications targeting this node are
// delivered; dLSM's thread notifier consumes it to wake sleeping RPC
// requesters (§X-D). A crash closes and replaces the queue, so consumers
// holding the old one observe it closing.
func (n *Node) ImmQueue() *sim.Chan[Message] {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.immQueue
}

// NewQP creates a queue pair from this node to peer with its own send queue,
// completion queue and worker. Per the paper's RDMA manager, each thread
// creates a thread-local QP so completions are never mixed across threads.
func (n *Node) NewQP(peer *Node) *QP {
	qp := newQP(n, peer)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		panic("rdma: NewQP on closed node")
	}
	n.qps = append(n.qps, qp)
	n.mu.Unlock()
	return qp
}

// NumQPs reports how many open queue pairs the node owns (each has one
// worker entity).
func (n *Node) NumQPs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.qps)
}

// dropQP forgets a closed queue pair so short-lived QPs (one per scan
// iterator, say) don't accumulate on the node for its whole lifetime.
func (n *Node) dropQP(qp *QP) {
	n.mu.Lock()
	for i, x := range n.qps {
		if x == qp {
			n.qps = append(n.qps[:i], n.qps[i+1:]...)
			break
		}
	}
	n.mu.Unlock()
}

// Crashed reports whether the node is currently crashed. Queue pairs check
// it when executing work requests: any operation targeting a crashed peer
// completes with ErrQPBroken.
func (n *Node) Crashed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed
}

// crashGeneration counts how many times the node has crashed. Queue pairs
// snapshot the target's generation at post time and compare at execution
// time: a mismatch means the peer crashed (and possibly restarted) while
// the request was in flight, so it must complete with ErrQPBroken rather
// than silently touch reborn memory. This is what makes a crash atomic
// with respect to chained one-sided writes straddling the crash instant.
func (n *Node) crashGeneration() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashGen
}

// Crash simulates the node failing: every registered memory region is
// invalidated (remote access to its rkey fails from now on, even after a
// restart — rkeys are never reissued), all receive queues close (resident
// software such as an RPC server observes its endpoints closing, exactly
// as a dying process would), and the node's own queue pairs shut down.
// In-flight operations from peers complete with ErrQPBroken.
func (n *Node) Crash() {
	n.mu.Lock()
	if n.crashed || n.closed {
		n.mu.Unlock()
		return
	}
	n.crashed = true
	n.crashGen++
	n.mrs = make(map[uint32]*MemoryRegion)
	qps := n.qps
	n.qps = nil
	eps := make([]*sim.Chan[Message], 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.endpoints = make(map[string]*sim.Chan[Message])
	imm := n.immQueue
	n.immQueue = sim.NewChan[Message](n.env(), 4096)
	n.mu.Unlock()
	for _, qp := range qps {
		qp.Close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	imm.Close()
}

// Restart brings a crashed node back: fresh (empty) memory-region and
// endpoint tables, a fresh immediate queue. Regions come back empty —
// whoever owned registered memory must re-register and repopulate it; all
// remote addresses minted before the crash stay permanently invalid.
func (n *Node) Restart() {
	n.mu.Lock()
	n.crashed = false
	n.mu.Unlock()
}

// Close tears down all queue pairs and receive queues of the node.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	qps := n.qps
	n.qps = nil // qp.Close -> dropQP must not mutate the snapshot's backing array
	eps := make([]*sim.Chan[Message], 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	imm := n.immQueue
	n.mu.Unlock()
	for _, qp := range qps {
		qp.Close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	imm.Close()
}
