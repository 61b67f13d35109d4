// Package readahead implements pipelined scan prefetching: a per-iterator
// scheduler that keeps a configurable depth of chunk fetches in flight on
// a queue pair, mirroring the flush pipeline's multi-buffer design
// (internal/flush) on the read path. dLSM §VI sells byte-addressable
// SSTables partly on multi-MB scan prefetches; with one outstanding fetch
// the scan still stalls a full RDMA round trip per chunk — exactly the
// idle bubble §X-C's multi-buffer flush machinery removes on the write
// path. Posting depth chunks back-to-back pipelines their wire times (the
// QP reserves wire time at post), so the network works while the iterator
// burns CPU on parsing.
//
// What a scan has fetched but not yet read is bounded by what it has read
// (see Scheduler): a scan that stops — most do, a few dozen entries into
// each table — abandons everything still on the wire or resident, and on a
// saturated link every abandoned byte is throughput lost to all scans.
//
// Determinism: the scheduler spawns no entities of its own — asynchrony
// comes entirely from the QP's existing post/completion machinery, which
// is already part of the deterministic cooperative scheduler.
package readahead

import (
	"errors"
	"sync"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// Floor is how many unread bytes a table iterator may hold before it has
// read anything: about what it parses during one fetch round trip, the
// least that lets the second fetch hide behind the first. One EDR round
// trip (rdma.LinkParams.Latency, 1.7 us) is 14 entry parses
// (sim.CostModel.EntryParse, 120 ns), 6 KB of the paper's 420-byte
// entries; 4 KiB is the power of two below it, erring towards a stall —
// paid once, by the scan that stalls — over bytes abandoned on a link
// every scan shares. EXPERIMENTS.md "-fig scan" sweeps its neighbours.
const Floor = 4 << 10

// smallBuf is the pool's lower buffer class. A short scan's chunks are a
// few KB each; registering a MaxWindow-sized (2 MiB) buffer for every one
// of them is what a scan-heavy process's heap consists of.
const smallBuf = 16 << 10

// ErrClosed is returned by ReadAt on a closed scheduler.
var ErrClosed = errors.New("readahead: scheduler closed")

// Metrics are the scan-prefetch telemetry handles. All fields may be nil
// (nil handles are inert).
type Metrics struct {
	Inflight        *telemetry.Gauge   // scan.prefetch_inflight
	StallNS         *telemetry.Counter // scan.stall_ns: virtual ns blocked on fetches
	BytesPrefetched *telemetry.Counter // scan.bytes_prefetched
	BytesWasted     *telemetry.Counter // scan.bytes_wasted: fetched but never consumed
}

// Pool owns what a DB's scan iterators share and recycle: registered
// prefetch buffers (like the flush pipeline's free list: ibv_reg_mr is
// expensive, so buffers are registered once and reused) and the scan
// queue pairs the fetches are posted on. Buffers come in two classes,
// smallBuf and bufSize; chunks larger than bufSize (a single entry bigger
// than the max window) get a dedicated registration, dropped on release.
type Pool struct {
	node, peer *rdma.Node
	bufSize    int
	m          Metrics

	mu        sync.Mutex
	free      [2][]*rdma.MemoryRegion // by class: smallBuf, bufSize
	allocated int                     // pooled buffers registered
	out       int                     // of those, held by a scheduler or an abandoned fetch
	lanes     []*lane                 // idle, possibly still draining abandoned fetches
	taken     int                     // takeLane calls: schedulers that fetched at all
	closed    bool
}

// lane is a scan queue pair (thread-local QP discipline, §X-B: pipelined
// fetches must not interleave completions with a session QP's synchronous
// reads) and the FIFO of fetches posted on it that have not been reaped. A
// fetch cannot be cancelled — the simulated NIC, like a real one, writes
// into its buffer at wire-completion time — so a lane outlives the
// Scheduler that posted on it: the next one to take the lane reaps what
// the last one abandoned. The queue is popped by copying down (it holds
// at most Depth+1 chunks), so it stops allocating once it has grown.
type lane struct {
	qp *rdma.QP
	q  []chunk
}

// NewPool creates a pool of bufSize-byte buffers registered on node for
// fetches from peer.
func NewPool(node, peer *rdma.Node, bufSize int, m Metrics) *Pool {
	if bufSize < Floor {
		bufSize = Floor
	}
	return &Pool{node: node, peer: peer, bufSize: bufSize, m: m}
}

// Get returns a registered buffer of at least n bytes and whether it came
// from (and must return to) the pool.
func (p *Pool) Get(n int) (mr *rdma.MemoryRegion, pooled bool) {
	if n > p.bufSize {
		return p.node.Register(n), false
	}
	class, size := p.class(n)
	p.mu.Lock()
	p.out++
	if k := len(p.free[class]) - 1; k >= 0 {
		mr, p.free[class] = p.free[class][k], p.free[class][:k]
		p.mu.Unlock()
		return mr, true
	}
	p.allocated++
	p.mu.Unlock()
	return p.node.Register(size), true
}

// class picks the buffer class that holds n <= bufSize bytes.
func (p *Pool) class(n int) (class, size int) {
	if n <= smallBuf && smallBuf < p.bufSize {
		return 0, smallBuf
	}
	return 1, p.bufSize
}

// Put releases a buffer obtained from Get.
func (p *Pool) Put(mr *rdma.MemoryRegion, pooled bool) {
	if mr == nil {
		return
	}
	if !pooled {
		p.node.Deregister(mr)
		return
	}
	p.mu.Lock()
	p.out--
	if p.closed {
		p.mu.Unlock()
		p.node.Deregister(mr)
		return
	}
	class, _ := p.class(mr.Size())
	p.free[class] = append(p.free[class], mr)
	p.mu.Unlock()
}

// Stats reports how many pooled buffers exist and how many are free.
// allocated == free means every scan iterator has returned its buffers
// and no lane still holds an abandoned fetch.
func (p *Pool) Stats() (allocated, free int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocated, p.allocated - p.out
}

// Lanes reports how many schedulers have taken a lane so far — those that
// fetched at all — and how many lanes sit idle.
func (p *Pool) Lanes() (taken, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.taken, len(p.lanes)
}

// takeLane hands out the most recently parked lane, creating a queue pair
// only when none is idle. Taking a lane that is still draining abandoned
// fetches costs no virtual time: a new fetch completes after everything
// already on the wire anyway.
func (p *Pool) takeLane() *lane {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.taken++
	if k := len(p.lanes) - 1; k >= 0 {
		l := p.lanes[k]
		p.lanes = p.lanes[:k]
		return l
	}
	return &lane{qp: p.node.NewQP(p.peer)}
}

func (p *Pool) putLane(l *lane) {
	p.mu.Lock()
	if !p.closed {
		p.lanes = append(p.lanes, l)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.reap(l)
}

// await blocks until the lane's oldest fetch completes, pops it and
// returns its buffer's residency with the completion error.
func (p *Pool) await(l *lane) (chunk, error) {
	comp := l.qp.WaitCQ()
	p.m.Inflight.Add(-1)
	c := l.q[0]
	l.q = l.q[:copy(l.q, l.q[1:])]
	return c, comp.Err
}

// reap waits out a lane's abandoned fetches, releases their buffers and
// closes its queue pair.
func (p *Pool) reap(l *lane) {
	for len(l.q) > 0 {
		c, _ := p.await(l)
		p.Put(c.mr, c.pooled)
	}
	l.qp.Close()
}

// Close reaps every idle lane (blocking on fetches still on the wire) and
// deregisters the free buffers; buffers and lanes still out with open
// iterators are released as they come back.
func (p *Pool) Close() {
	p.mu.Lock()
	free, lanes := p.free, p.lanes
	p.free, p.lanes, p.closed = [2][]*rdma.MemoryRegion{}, nil, true
	p.mu.Unlock()
	for _, l := range lanes {
		p.reap(l)
	}
	for _, class := range free {
		for _, mr := range class {
			p.node.Deregister(mr)
		}
	}
}

// Config wires a Scheduler to one table's data region.
type Config struct {
	Base      rdma.RemoteAddr // table data region
	Size      int             // data region length in bytes
	Pool      *Pool           // buffer and queue-pair source
	Depth     int             // max in-flight chunk fetches (the pipeline depth)
	MaxWindow int             // largest chunk a long scan ramps to; default Floor
}

// chunk is one buffer's residency: table bytes [lo, hi). An abandoned
// fetch keeps only its buffer (lo == hi, so no request ever hits it).
type chunk struct {
	mr     *rdma.MemoryRegion
	lo, hi int
	pooled bool
}

// Scheduler pipelines chunk fetches for one table iterator. It is not
// safe for concurrent use — iterators are thread-local, like their QPs.
//
// Invariant: the bytes fetched but not yet read — the unread tail of the
// resident chunk plus everything in flight — never exceed
//
//	Floor + (bytes read since the seek) / 2
//
// beyond one entry of rounding per chunk (chunks end on entry boundaries)
// and a first request larger than Floor. Half, because then a scan that
// stops anywhere has moved at most 1.5x what it read plus Floor per table,
// while the budget — and with it the chunk size, 1/(2(Depth+1)) of what
// has been read — still grows geometrically towards MaxWindow; a larger
// share buys a faster ramp that only scans long enough not to need it
// would see. Every fetch is sized at 1/(Depth+1) of the budget of the
// moment it is posted: the budget only grows, so the Depth fetches in
// flight plus the resident chunk fit it by construction, and a deeper
// pipeline means smaller chunks, not more abandoned bytes.
type Scheduler struct {
	cfg  Config
	m    *Metrics // the pool's
	env  *sim.Env
	plan func(off, want int) int

	start  int   // where the run began: the offset of the last seek
	mark   int   // the consumer has read the run's bytes below this offset
	next   int   // next planned fetch offset; -1 = nothing planned
	cur    chunk // resident chunk the consumer reads from
	lane   *lane // posted fetches, FIFO (completion order); nil until the first
	closed bool
	err    error
}

// New creates a scheduler. plan(off, want) returns the end offset of the
// chunk starting at off spanning at least want bytes, aligned so no entry
// or block straddles two chunks (sstable.Reader supplies this from its
// index); it must make progress (end > off) for every off < Size. A
// scheduler that never fetches holds no queue pair and no buffer.
func New(cfg Config, plan func(off, want int) int) *Scheduler {
	if cfg.MaxWindow < Floor {
		cfg.MaxWindow = Floor
	}
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	return &Scheduler{
		cfg:  cfg,
		m:    &cfg.Pool.m,
		env:  cfg.Pool.node.Fabric().Env(),
		plan: plan,
		next: -1,
	}
}

// Consumed tells the scheduler the consumer has read resident bytes below
// table offset upTo without coming back through ReadAt (sstable's window
// slices entries out of the chunk it was handed). Report it before the
// ReadAt or Close that gives the chunk up.
func (s *Scheduler) Consumed(upTo int) {
	if upTo > s.mark {
		s.mark = upTo
	}
}

// ReadAt makes [lo, hi) resident and returns the covering chunk plus its
// start offset; the slice is valid until the next ReadAt or Close. A
// request inside the pipelined run consumes the pipeline head and posts
// the next fetch; a request outside it (a seek) starts a new run at lo.
func (s *Scheduler) ReadAt(lo, hi int) ([]byte, int, error) {
	if s.err != nil {
		return nil, 0, s.err
	}
	if s.closed {
		return nil, 0, ErrClosed
	}
	if hi <= lo {
		return nil, lo, nil
	}
	if s.cur.mr != nil && lo >= s.cur.lo && hi <= s.cur.hi {
		s.Consumed(hi)
		return s.slice(), s.cur.lo, nil
	}
	if s.lane == nil {
		s.lane = s.cfg.Pool.takeLane()
	}

	// Drop pipeline heads the consumer skipped entirely (a seek within
	// the planned run, or chunks whose every entry was invisible).
	hit := -1
	for i, c := range s.lane.q {
		if lo >= c.lo && hi <= c.hi {
			hit = i
			break
		}
	}
	if hit < 0 {
		// Miss: the request is outside everything posted, so a new run
		// starts at lo with nothing read. The covering chunk is posted
		// FIRST — appending behind the abandoned fetches (this
		// scheduler's, or the lane's previous owner's) keeps QP FIFO order
		// while its wire time overlaps their (already paid) drain.
		hit = len(s.lane.q)
		s.start, s.next = lo, lo
		s.submitOne(lo, hi-lo)
	}
	for i := 0; i < hit; i++ {
		c := s.awaitHead()
		s.m.BytesWasted.Add(int64(c.hi - c.lo))
		s.release(c)
	}
	s.releaseCur()
	s.cur = s.awaitHead()
	if s.err != nil {
		return nil, 0, s.err
	}
	for len(s.lane.q) < s.cfg.Depth && s.next >= 0 && s.next < s.cfg.Size {
		s.submitOne(lo, 0)
	}
	s.mark = hi
	return s.slice(), s.cur.lo, nil
}

// submitOne posts the next chunk fetch for a consumer now at table offset
// pos: 1/(Depth+1) of the budget pos has earned (see Scheduler), at least
// minSpan, at most MaxWindow.
func (s *Scheduler) submitOne(pos, minSpan int) {
	want := (Floor + (pos-s.start)/2) / (s.cfg.Depth + 1)
	if want > s.cfg.MaxWindow {
		want = s.cfg.MaxWindow
	}
	if minSpan > want {
		want = minSpan
	}
	end := s.plan(s.next, want)
	if end <= s.next { // defensive: a non-advancing plan would spin
		s.next = s.cfg.Size
		return
	}
	n := end - s.next
	mr, pooled := s.cfg.Pool.Get(n)
	s.lane.qp.Read(mr, 0, s.cfg.Base.Add(s.next), n, 0)
	s.m.BytesPrefetched.Add(int64(n))
	s.m.Inflight.Add(1)
	s.lane.q = append(s.lane.q, chunk{mr: mr, lo: s.next, hi: end, pooled: pooled})
	s.next = end
}

// awaitHead blocks until the oldest in-flight fetch completes and pops
// it. Time spent blocked is the pipeline's stall time.
func (s *Scheduler) awaitHead() chunk {
	t0 := s.env.Now()
	c, err := s.cfg.Pool.await(s.lane)
	if d := s.env.Now() - t0; d > 0 {
		s.m.StallNS.Add(int64(d))
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	return c
}

func (s *Scheduler) slice() []byte {
	return s.cur.mr.Bytes(0, s.cur.hi-s.cur.lo)
}

func (s *Scheduler) release(c chunk) {
	s.cfg.Pool.Put(c.mr, c.pooled)
}

// releaseCur gives the resident chunk up; the tail the consumer never
// reached was fetched for nothing.
func (s *Scheduler) releaseCur() {
	if unread := s.cur.hi - max(s.mark, s.cur.lo); unread > 0 {
		s.m.BytesWasted.Add(int64(unread))
	}
	s.release(s.cur)
	s.cur = chunk{}
}

// Close releases the resident buffer and parks the lane; it is idempotent
// and never blocks. Fetches still in flight are abandoned: their bytes
// count as wasted now, and whoever takes the lane next (or Pool.Close)
// reaps them and returns their buffers.
func (s *Scheduler) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.releaseCur()
	if s.lane == nil {
		return
	}
	for i := range s.lane.q {
		c := &s.lane.q[i]
		s.m.BytesWasted.Add(int64(c.hi - c.lo))
		c.lo, c.hi = 0, 0
	}
	s.cfg.Pool.putLane(s.lane)
	s.lane = nil
}
