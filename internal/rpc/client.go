package rpc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// ErrTimeout is returned (wrapped) when a call's reply deadline expires on
// its final attempt. Test with errors.Is.
var ErrTimeout = errors.New("rpc: call timed out")

// Policy controls per-call robustness. The zero value reproduces the
// pre-fault-injection behavior: wait forever, never retry — so baseline
// benchmarks are unaffected unless a caller opts in.
//
// Retrying is only safe for idempotent or deduplicated calls: reads and
// allocation-free polls can always retry; compaction RPCs carry a job id
// so the memory node deduplicates redelivery (see internal/memnode).
type Policy struct {
	// Timeout is the per-attempt reply deadline in virtual time; 0 waits
	// forever.
	Timeout sim.Duration
	// MaxAttempts is the total number of attempts (first try included);
	// values below 1 mean 1.
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles per
	// attempt, capped at MaxBackoff (if nonzero).
	Backoff sim.Duration
	// MaxBackoff caps the exponential backoff. 0 = uncapped.
	MaxBackoff sim.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (0..1), hashed
	// deterministically from the client identity, method, call start time
	// and attempt number — no global RNG stream is consumed.
	Jitter float64
}

func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoffFor returns the deterministic backoff before attempt+1.
func (p Policy) backoffFor(salt uint64, attempt int) sim.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		f := 1 + p.Jitter*(2*sim.MixFloat(salt, uint64(attempt))-1)
		d = sim.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Client issues RPCs from one requester thread to one responder node. It is
// not safe for concurrent use: like the paper's design, every thread owns a
// thread-local QP, reply buffer and (for large calls) argument buffer.
type Client struct {
	env      *sim.Env
	node     *rdma.Node
	peer     *rdma.Node
	qp       *rdma.QP
	reply    *rdma.MemoryRegion
	args     *rdma.MemoryRegion
	notifier *Notifier
	salt     uint64

	retries  *telemetry.Counter
	timeouts *telemetry.Counter
}

// DefaultReplyBuf is the reply buffer size when none is specified.
const DefaultReplyBuf = 1 << 20

// NewClient creates a client from node to peer. notifier may be nil if
// CallLarge is never used. replyBuf is the reply buffer capacity.
func NewClient(node, peer *rdma.Node, notifier *Notifier, replyBuf int) *Client {
	if replyBuf <= 0 {
		replyBuf = DefaultReplyBuf
	}
	env := node.Fabric().Env()
	tel := node.Fabric().Telemetry()
	c := &Client{
		env:      env,
		node:     node,
		peer:     peer,
		qp:       node.NewQP(peer),
		reply:    node.Register(replyBuf),
		notifier: notifier,
		retries:  tel.Counter("rpc.retries"),
		timeouts: tel.Counter("rpc.timeouts"),
	}
	// The salt must be a pure function of stable identifiers: rkeys and
	// wake-up ids come from shared allocators whose hand-out order depends
	// on host scheduling when clients are created lazily by concurrent
	// workers, so they must not leak into the jitter stream.
	c.salt = sim.Mix64(uint64(env.Seed()), uint64(node.ID), uint64(peer.ID))
	return c
}

// callSalt derives one call's jitter stream from the client's stable
// identity, the method, and the call's start in virtual time — all pure
// virtual-state inputs, so same-seed runs draw identical backoff jitter no
// matter how host threads interleave, while concurrent calls (which start
// at different virtual instants) still decorrelate.
func (c *Client) callSalt(method string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(method))
	return sim.Mix64(c.salt, h.Sum64(), uint64(c.env.Now()))
}

// Call performs a general-purpose RPC with no deadline and no retries: SEND
// the request with the reply buffer's address attached, then poll the flag
// byte at the end of the buffer until the responder's one-sided write lands.
func (c *Client) Call(method string, args []byte) ([]byte, error) {
	return c.CallPolicy(method, args, Policy{})
}

// CallPolicy is Call under a robustness policy: each attempt abandons the
// reply flag at its deadline, and failed attempts are retried with capped
// exponential backoff. Every retry gets a fresh reply region so a straggler
// reply from an earlier attempt targets a deregistered rkey and dies on the
// responder's NIC instead of corrupting the retry.
func (c *Client) CallPolicy(method string, args []byte, p Policy) ([]byte, error) {
	attempts := p.attempts()
	salt := c.callSalt(method)
	var lastErr error
	for attempt := 1; ; attempt++ {
		flagOff := c.reply.Size() - 1
		c.reply.SetByte(flagOff, 0)

		req := make([]byte, 0, len(args)+len(method)+64)
		req = putU32(req, kindInline)
		req = putBytes(req, []byte(method))
		req = c.appendReplyAddr(req)
		req = putBytes(req, args)

		var deadline sim.Time
		if p.Timeout > 0 {
			deadline = c.env.Now() + sim.Time(p.Timeout)
		}
		if err := c.qp.SendSync(EndpointName, req); err != nil {
			if errors.Is(err, rdma.ErrQPClosed) {
				return nil, err // our own QP is gone; retrying cannot help
			}
			lastErr = err
		} else if c.reply.AwaitByteDeadline(flagOff, 1, deadline) {
			return c.parseReply()
		} else {
			c.timeouts.Inc()
			lastErr = fmt.Errorf("%w: %s (attempt %d/%d)", ErrTimeout, method, attempt, attempts)
		}
		if attempt >= attempts {
			return nil, lastErr
		}
		c.retries.Inc()
		if d := p.backoffFor(salt, attempt); d > 0 {
			c.env.Sleep(d)
		}
		c.renewReply()
	}
}

// CallLarge performs the near-data-compaction RPC with no deadline and no
// retries: args are serialized into a registered buffer and pulled by the
// responder via RDMA READ; the caller sleeps until the reply's
// WRITE_WITH_IMMEDIATE wakes it through the node's thread notifier.
func (c *Client) CallLarge(method string, args []byte) ([]byte, error) {
	return c.CallLargePolicy(method, args, Policy{})
}

// CallLargePolicy is CallLarge under a robustness policy. Each attempt arms
// a fresh wake-up id and each retry re-registers both the argument and the
// reply regions, so a straggler READ or reply write from a dead attempt
// hits an invalid rkey and cannot wake or corrupt the retry.
func (c *Client) CallLargePolicy(method string, args []byte, p Policy) ([]byte, error) {
	if c.notifier == nil {
		return nil, errors.New("rpc: CallLarge requires a notifier")
	}
	attempts := p.attempts()
	salt := c.callSalt(method)
	var lastErr error
	for attempt := 1; ; attempt++ {
		c.stageArgs(args)
		wakeID := c.notifier.NewID()

		req := make([]byte, 0, len(method)+64)
		req = putU32(req, kindRemote)
		req = putBytes(req, []byte(method))
		req = c.appendReplyAddr(req)
		argAddr := c.args.Addr(0)
		req = putU32(req, uint32(argAddr.Node))
		req = putU32(req, argAddr.RKey)
		req = putU64(req, uint64(argAddr.Off))
		req = putU32(req, uint32(len(args)))
		req = putU32(req, wakeID)

		var deadline sim.Time
		if p.Timeout > 0 {
			deadline = c.env.Now() + sim.Time(p.Timeout)
		}
		w := c.notifier.Arm(wakeID)
		if err := c.qp.SendSync(EndpointName, req); err != nil {
			c.notifier.Disarm(wakeID, w)
			if errors.Is(err, rdma.ErrQPClosed) {
				return nil, err
			}
			lastErr = err
		} else if c.notifier.Wait(wakeID, w, deadline) {
			return c.parseReply()
		} else {
			c.timeouts.Inc()
			lastErr = fmt.Errorf("%w: %s (attempt %d/%d)", ErrTimeout, method, attempt, attempts)
		}
		if attempt >= attempts {
			return nil, lastErr
		}
		c.retries.Inc()
		if d := p.backoffFor(salt, attempt); d > 0 {
			c.env.Sleep(d)
		}
		c.renewReply()
		c.renewArgs()
	}
}

// stageArgs copies args into the registered argument buffer, growing it if
// needed. The outgrown region is deregistered first — leaking it would pin
// both memory and a live rkey a stale remote READ could still hit.
func (c *Client) stageArgs(args []byte) {
	if c.args == nil || c.args.Size() < len(args) {
		if c.args != nil {
			c.node.Deregister(c.args)
		}
		c.args = c.node.Register(max(len(args), 64<<10))
	}
	copy(c.args.Bytes(0, len(args)), args)
}

// GrowReply makes the reply region hold a payload of up to n bytes, growing
// it on demand the way stageArgs grows the argument buffer. A caller that
// can bound its reply (a compaction's output metas) asks before the call:
// a reply that does not fit comes back as an error only after the responder
// did the whole job. So a client whose replies vary starts small and lets
// this size the region — at least doubling, so a slowly rising bound does
// not re-register per call. The outgrown region is deregistered, like a
// renewal.
func (c *Client) GrowReply(n int) {
	if need := n + replyOverhead + 1; c.reply.Size() < need {
		c.node.Deregister(c.reply)
		c.reply = c.node.Register(max(need, 2*c.reply.Size()))
	}
}

// renewReply swaps the reply region for a freshly registered one of the
// same size, invalidating the rkey any in-flight responder still holds.
func (c *Client) renewReply() {
	size := c.reply.Size()
	c.node.Deregister(c.reply)
	c.reply = c.node.Register(size)
}

// renewArgs drops the argument region; the next attempt re-stages into a
// fresh registration.
func (c *Client) renewArgs() {
	if c.args != nil {
		c.node.Deregister(c.args)
		c.args = nil
	}
}

func (c *Client) appendReplyAddr(req []byte) []byte {
	addr := c.reply.Addr(0)
	req = putU32(req, uint32(addr.Node))
	req = putU32(req, addr.RKey)
	req = putU64(req, uint64(addr.Off))
	req = putU32(req, uint32(c.reply.Size()))
	return req
}

func (c *Client) parseReply() ([]byte, error) {
	buf := c.reply.Bytes(0, c.reply.Size())
	r := &reader{b: buf, off: 1}
	payload := r.bytes()
	if r.err {
		return nil, errors.New("rpc: malformed reply")
	}
	if buf[0] == statusErr {
		return nil, fmt.Errorf("rpc: remote error: %s", payload)
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

// Close releases the client's QP and deregisters its buffers.
func (c *Client) Close() {
	c.qp.Close()
	c.node.Deregister(c.reply)
	if c.args != nil {
		c.node.Deregister(c.args)
	}
}

// Notifier is the per-node thread notifier (§X-D2): a single entity drains
// the node's immediate queue and wakes the requester registered under each
// wake-up id.
type Notifier struct {
	env  *sim.Env
	node *rdma.Node

	mu     sync.Mutex
	nextID uint32
	armed  map[uint32]*Waiter
}

// Waiter is one armed wake-up registration. All fields are guarded by the
// notifier mutex; signaled/blocked sequence the race between a waker (the
// notifier loop, a drain, or the deadline alarm) and a requester that has
// armed but not yet parked.
type Waiter struct {
	gate     *sim.Gate // requester is parked without a deadline (a Ready is owed)
	alarm    *sim.Alarm
	signaled bool // a waker already decided this waiter's fate
	timedOut bool
}

// notifierKey indexes the per-node notifier in Node.UserData.
type notifierKey struct{}

// NotifierFor returns the node's thread notifier, creating and starting it
// on first use. The notifier is a per-node singleton because WRITE_WITH_IMM
// notifications arrive on one queue per node: multiple drainers would steal
// each other's wake-ups, and wake ids must be unique node-wide.
func NotifierFor(node *rdma.Node) *Notifier {
	if v, ok := node.UserData().Load(notifierKey{}); ok {
		return v.(*Notifier)
	}
	n := &Notifier{
		env:   node.Fabric().Env(),
		node:  node,
		armed: make(map[uint32]*Waiter),
	}
	if actual, loaded := node.UserData().LoadOrStore(notifierKey{}, n); loaded {
		return actual.(*Notifier)
	}
	n.env.Go(n.loop)
	return n
}

// NewID allocates a unique wake-up id for one call attempt. Retried
// attempts use fresh ids so a straggler immediate from a dead attempt can
// never wake the retry.
func (n *Notifier) NewID() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	return n.nextID
}

// Arm registers the calling requester to be woken when a reply with its id
// arrives. Arm before issuing the request; then block with Wait.
func (n *Notifier) Arm(id uint32) *Waiter {
	w := &Waiter{}
	n.mu.Lock()
	n.armed[id] = w
	n.mu.Unlock()
	return w
}

// Disarm cancels a registration that will never be waited on (e.g. the
// request SEND itself failed).
func (n *Notifier) Disarm(id uint32, w *Waiter) {
	n.mu.Lock()
	if n.armed[id] == w {
		delete(n.armed, id)
	}
	n.mu.Unlock()
}

// Wait parks the calling entity until the armed waiter is signaled. It
// returns true if the reply's immediate woke it, false if the deadline
// passed first (deadline 0 waits forever) or the notifier shut down.
func (n *Notifier) Wait(id uint32, w *Waiter, deadline sim.Time) bool {
	n.mu.Lock()
	if w.signaled {
		// The reply (or a shutdown drain) won the race before we parked.
		n.mu.Unlock()
		return !w.timedOut
	}
	if deadline > 0 {
		w.alarm = n.env.Clock().NewAlarm(deadline, "rpc.sleep")
		n.mu.Unlock()
		if w.alarm.Wait() {
			// Deadline fired first: claim the registration. Losing the
			// claim means the reply landed concurrently — count that as
			// success, the reply bytes are already in place.
			n.mu.Lock()
			if n.armed[id] == w {
				delete(n.armed, id)
				w.timedOut = true
			}
			n.mu.Unlock()
		}
		return !w.timedOut
	}
	g := sim.NewGate()
	w.gate = g
	n.mu.Unlock()
	n.env.Clock().Park("rpc.sleep", g)
	return !w.timedOut
}

// wakeLocked signals one waiter; the caller holds n.mu and has already
// removed it from the armed map.
func (n *Notifier) wakeLocked(w *Waiter) {
	w.signaled = true
	switch {
	case w.alarm != nil:
		w.alarm.Cancel()
	case w.gate != nil:
		n.env.Clock().Ready("rpc.sleep", w.gate)
	}
	// Otherwise not parked yet: Wait (or Disarm) observes signaled and
	// never blocks, so the scheduler is not involved.
}

func (n *Notifier) loop() {
	q := n.node.ImmQueue()
	for {
		msg, ok := q.Recv()
		if !ok {
			n.drain()
			return
		}
		n.mu.Lock()
		w := n.armed[msg.Imm]
		delete(n.armed, msg.Imm)
		if w != nil {
			n.wakeLocked(w)
		}
		n.mu.Unlock()
	}
}

// drain wakes any still-armed requesters during shutdown (the node
// crashed or closed) so they do not leak as blocked entities. They
// observe the shutdown as a timeout.
func (n *Notifier) drain() {
	n.mu.Lock()
	armed := n.armed
	n.armed = make(map[uint32]*Waiter)
	for _, w := range armed {
		w.timedOut = true
		n.wakeLocked(w)
	}
	n.mu.Unlock()
}
