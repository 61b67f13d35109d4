package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: closed")

// ErrTooLarge is returned when a single entry cannot fit one log record
// (bounded by the staging buffer and a quarter of the ring).
var ErrTooLarge = errors.New("wal: entry too large for log record")

// ErrFenced is returned once the log's ownership fence fails: another
// compute node took over the shard's write lease (internal/lease), so this
// log must never acknowledge another write. The log is permanently broken;
// every pending and future append resolves to this error.
var ErrFenced = errors.New("wal: fenced by lease takeover")

// Metrics is the optional instrumentation bundle; all fields are nil-safe.
type Metrics struct {
	Appends      *telemetry.Counter   // records staged
	AppendBytes  *telemetry.Counter   // framed record bytes staged
	Doorbells    *telemetry.Counter   // RDMA writes completed for record data
	GroupRecords *telemetry.Histogram // records coalesced per doorbell
	Truncations  *telemetry.Counter   // checkpoint refreshes published
	CkptSkips    *telemetry.Counter   // refreshes dropped (blob > slot cap)
	RingStalls   *telemetry.Counter   // appends that waited for ring or staging space
	RingStallNS  *telemetry.Counter   // virtual ns those appends spent waiting
	Replayed     *telemetry.Counter   // entries re-applied by recovery
	CommitWait   *telemetry.Histogram // virtual ns from Reserve to durable, per record
	CommitPark   *telemetry.Histogram // virtual ns a sync Commit spent parked
	Inflight     *telemetry.Gauge     // doorbells posted and not yet reaped
}

// Config wires a Log to its environment.
type Config struct {
	Env     *sim.Env
	Compute *rdma.Node // the appending compute node
	Host    *rdma.Node // the memory node owning the slot

	Slot     rdma.RemoteAddr // slot base (from memnode.OpenLog)
	SlotSize int64

	// PerWrite narrows the commit pipeline to one record per doorbell and
	// one doorbell in flight — stop-and-wait, for the durability-sweep
	// ablation.
	PerWrite bool

	// Refresh builds a checkpoint blob plus the covered horizon: every
	// sequence number <= covered is captured by the blob's tables. The
	// trimmer calls it outside the log mutex.
	Refresh func() (blob []byte, covered uint64)
	// Kick asks the engine to push unflushed data toward a checkpoint
	// (force a memtable switch). The trimmer calls it, outside the log
	// mutex, when a refresh freed no ring space while appends are parked
	// on it: nothing already flushed was holding the ring, so only new
	// flushes can free it. The engine may decline (flushes still queued).
	Kick func()
	// Charge accounts serialization/copy CPU to the compute node.
	Charge func(bytes int)

	// Fence/FenceWord wire the shard's ownership lease (internal/lease)
	// into the commit path: when FenceWord is nonzero, every doorbell is
	// acknowledged — and every checkpoint refresh published — only after
	// a one-sided CAS verifies the remote word at Fence still holds
	// FenceWord. A takeover changes the word atomically, so a deposed
	// owner's in-flight appends land in the ring but never acknowledge
	// (ErrFenced), and the new owner's post-takeover slot read observes
	// every write the old owner ever acknowledged. Zero FenceWord — the
	// default — skips the check entirely (single-owner layout).
	Fence     rdma.RemoteAddr
	FenceWord uint64

	// Replica mirrors the whole slot — ring records, checkpoint blobs and
	// header flips — onto a second memory node with chained one-sided
	// writes, so the slot survives the primary memory node dying
	// (internal/repl). Nil disables mirroring; the log then behaves (and
	// its slot image stays) byte-identical to the unreplicated layout.
	Replica *ReplicaConfig

	Metrics Metrics
}

// ReplicaConfig describes the mirror slot on the backup memory node. It
// must have the same size as the primary slot: the two then share one
// geometry, so ring offsets and checkpoint-slot offsets carry over
// unchanged and every mirror write is a plain re-post of the primary one.
type ReplicaConfig struct {
	Host *rdma.Node      // the backup memory node
	Slot rdma.RemoteAddr // mirror slot base (from memnode.OpenLog)

	// Sync couples the replica to the ack path (the Quorum/All policies):
	// a mirror failure breaks the log before any unmirrored record can be
	// acknowledged, so an acked write is always on both copies. False (the
	// Primary policy) degrades instead — mirroring stops, acknowledgements
	// continue against the primary copy alone.
	Sync bool

	// Translate rewrites a checkpoint blob's table addresses into their
	// replica-side locations before the blob is published on the mirror
	// slot (the engine maps each table to its mirrored extent). ok=false
	// skips the refresh entirely — a named table is not mirrored yet, and
	// publishing a half-translated checkpoint would be worse than keeping
	// the previous one. Nil publishes the blob unchanged.
	Translate func(blob []byte) ([]byte, bool)

	// Bytes counts mirrored bytes; Degraded counts permanent mirror
	// aborts (non-Sync only). Both nil-safe.
	Bytes    *telemetry.Counter
	Degraded *telemetry.Counter

	// TornHook, when set, runs between the replica header flip and the
	// primary header flip of every checkpoint publish — the torn-dual-flip
	// window the replication tests aim a seeded crash at.
	TornHook func()
}

// Log is one shard's remote write-ahead log.
type Log struct {
	cfg      Config
	env      *sim.Env
	ckptCap  int
	ringBase int
	ringSize int

	qp      *rdma.QP // commit pipeline's queue pair
	trimQP  *rdma.QP // trimmer's queue pair (separate completion stream)
	staging *rdma.MemoryRegion

	// Replica queue pairs, nil unless Config.Replica is set: the completion
	// entity mirrors runs over replQP, the trimmer checkpoints over replTrimQP.
	replQP     *rdma.QP
	replTrimQP *rdma.QP

	mu        *sim.Mutex
	doneCond  *sim.Cond // completion entity <- doorbell posted
	stageCond *sim.Cond // stagers <- staging space freed
	ringCond  *sim.Cond // stagers <- ring space freed
	trimCond  *sim.Cond // trimmer <- refresh requested
	trimMu    *sim.Mutex

	// Commit pipeline (commit.go): durableLSN <= posted < nextLSN. Records
	// up to durableLSN are acknowledged, up to posted on the wire, the rest
	// wait for a window slot. PerWrite sets both limits to one.
	window   int // doorbells in flight
	maxRun   int // records per doorbell
	fenceWRs int // 1 when every run carries a fence CAS, else 0

	epoch      uint64
	nextLSN    uint64
	posted     uint64
	durableLSN uint64
	live       []liveRec   // records resident in the ring, FIFO by LSN
	ring       byteRing    // remote ring placement
	stage      byteRing    // staging ring: bytes of un-acked records
	inflight   []doorbell  // posted, un-reaped, FIFO
	waiters    []ackWaiter // parked sync writers, sorted by LSN
	attempts   int         // consecutive failed doorbells at the window head
	rewinding  bool        // completion entity is draining a failed window

	durableCovered uint64 // covered horizon of the last published header
	ckptSlot       uint32 // active checkpoint slot of the last header
	pubSeq         uint64 // header Tag of the last published pair (replicated slots)

	holdTrunc   int // >0: ring truncation paused (see HoldTruncation)
	refreshReq  bool
	ringParked  int // stagers parked on a full ring
	recovering  bool
	closed      bool
	broken      bool
	brokenErr   error
	replicaDown bool // non-Sync mirror failed permanently; primary-only from here

	wg *sim.WaitGroup
}

const (
	walMaxAttempts = 8
	walRetryBase   = 200 * time.Microsecond
	walRetryMax    = 10 * time.Millisecond
)

// Open initializes (or, with recovering=true, attaches to) the log slot
// and starts the completion and trim entities.
//
// A fresh Open stamps a new header with a bumped epoch, logically
// emptying the slot: stale ring bytes from a previous life can never
// parse as live records. A recovering Open leaves the remote slot
// untouched and starts with appends and refreshes disabled, so a crash
// during replay re-runs recovery against the identical surviving state;
// FinishRecovery performs the single atomic switch to a fresh epoch.
func Open(cfg Config, recovering bool) (*Log, error) {
	ckptCap, ringBase, ringSize, err := geometry(cfg.SlotSize, 0)
	if err != nil {
		return nil, err
	}
	l := &Log{
		cfg:        cfg,
		env:        cfg.Env,
		ckptCap:    ckptCap,
		ringBase:   ringBase,
		ringSize:   ringSize,
		qp:         cfg.Compute.NewQP(cfg.Host),
		trimQP:     cfg.Compute.NewQP(cfg.Host),
		staging:    cfg.Compute.Register(stagingSize),
		mu:         sim.NewMutex(cfg.Env),
		trimMu:     sim.NewMutex(cfg.Env),
		window:     commitWindow,
		maxRun:     math.MaxInt,
		nextLSN:    1,
		ring:       byteRing{size: ringSize},
		stage:      byteRing{size: stagingSize},
		recovering: recovering,
		wg:         sim.NewWaitGroup(cfg.Env),
	}
	if cfg.PerWrite {
		l.window, l.maxRun = 1, 1
	}
	if cfg.FenceWord != 0 {
		l.fenceWRs = 1
	}
	l.doneCond = sim.NewNamedCond(cfg.Env, l.mu, "wal.done")
	l.stageCond = sim.NewNamedCond(cfg.Env, l.mu, "wal.staging")
	l.ringCond = sim.NewNamedCond(cfg.Env, l.mu, "wal.ring")
	l.trimCond = sim.NewNamedCond(cfg.Env, l.mu, "wal.trim")
	if cfg.Replica != nil {
		l.replQP = cfg.Compute.NewQP(cfg.Replica.Host)
		l.replTrimQP = cfg.Compute.NewQP(cfg.Replica.Host)
	}

	if !recovering {
		h := l.nextLife()
		l.epoch, l.pubSeq, h.CkptSlot = h.Epoch, h.Tag, 0
		if cfg.Replica != nil {
			// Replica first: its header is never behind a freed primary ring.
			if err := l.writeReplica(0, encodeHeader(h)); err != nil {
				l.teardown()
				return nil, fmt.Errorf("wal: initializing replica slot: %w", err)
			}
		}
		if err := l.writeSlot(l.trimQP, l.cfg.Slot, encodeHeader(h)); err != nil {
			l.teardown()
			return nil, fmt.Errorf("wal: initializing slot: %w", err)
		}
	}

	l.wg.Add(2)
	l.env.Go(l.completeLoop)
	l.env.Go(l.trimLoop)
	return l, nil
}

func (l *Log) teardown() {
	l.qp.Close()
	l.trimQP.Close()
	if l.replQP != nil {
		l.replQP.Close()
		l.replTrimQP.Close()
	}
	l.cfg.Compute.Deregister(l.staging)
}

// nextLife returns the header that supersedes the slot's current one: a
// bumped epoch (stale ring bytes never parse as live), an empty ring, the
// other checkpoint slot, and on a replicated slot the next publish Tag.
func (l *Log) nextLife() Header {
	old, err := l.readHeader() // the zero Header on a never-initialized slot
	h := Header{Epoch: old.Epoch + 1, StartLSN: 1, CkptCap: uint32(l.ckptCap)}
	if err == nil {
		h.CkptSlot = 1 - old.CkptSlot&1
	}
	if l.cfg.Replica != nil {
		h.Tag = old.Tag + 1
	}
	return h
}

// readHeader fetches the remote slot header.
func (l *Log) readHeader() (Header, error) {
	mr := l.cfg.Compute.Register(HeaderSize)
	defer l.cfg.Compute.Deregister(mr)
	if err := l.trimQP.ReadSync(mr, 0, l.cfg.Slot, HeaderSize); err != nil {
		return Header{}, err
	}
	return DecodeHeader(append([]byte(nil), mr.Bytes(0, HeaderSize)...))
}

// writeSlot writes data at a slot address over a trimmer queue pair,
// retrying transient faults.
func (l *Log) writeSlot(qp *rdma.QP, at rdma.RemoteAddr, data []byte) error {
	mr := l.cfg.Compute.RegisterBuf(data)
	defer l.cfg.Compute.Deregister(mr)
	return l.retrySync(func() error { return qp.WriteSync(mr, 0, at, len(data)) })
}

// writeReplica is writeSlot onto the mirror slot, counting mirrored bytes.
func (l *Log) writeReplica(off int, data []byte) error {
	err := l.writeSlot(l.replTrimQP, l.cfg.Replica.Slot.Add(off), data)
	if err == nil {
		l.cfg.Replica.Bytes.Add(int64(len(data)))
	}
	return err
}

// mirrorActive reports whether mirror writes should still be issued.
func (l *Log) mirrorActive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg.Replica != nil && !l.replicaDown
}

// mirrorFailed resolves a permanent mirror error under the ack policy:
// Sync propagates it, breaking the log before anything unmirrored can
// acknowledge; non-Sync (Primary) degrades to primary-only and swallows it.
func (l *Log) mirrorFailed(err error) error {
	if l.cfg.Replica.Sync {
		return fmt.Errorf("wal: replica mirror: %w", err)
	}
	l.DropMirror()
	return nil
}

// retrySync runs op up to walMaxAttempts times, with capped exponential
// backoff between attempts.
func (l *Log) retrySync(op func() error) error {
	for attempt := 1; ; attempt++ {
		if l.cfg.Compute.Crashed() {
			return rdma.ErrQPBroken
		}
		if err := op(); err == nil || attempt == walMaxAttempts {
			return err
		}
		l.env.Sleep(min(walRetryBase<<(attempt-1), walRetryMax))
	}
}

// RequestRefresh nudges the trimmer to publish a new checkpoint and
// advance the truncation horizon; the engine calls it after each flush.
// Nil-safe so Durability-off call sites need no guards.
func (l *Log) RequestRefresh() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.refreshReq = true
	l.trimCond.Signal()
	l.mu.Unlock()
}

// RefreshNow synchronously publishes a checkpoint (used when opening
// from an existing checkpoint, so the slot's recovery baseline is the
// one the caller just installed).
func (l *Log) RefreshNow() error {
	blob, covered := l.cfg.Refresh()
	_, err := l.publishRefresh(blob, covered)
	return err
}

// DropMirror permanently stops mirroring onto the replica slot. The
// engine calls it when the extent-mirroring side of replication degrades
// under the Primary ack policy: a checkpoint naming unmirrored tables can
// then never translate, so continuing to hold refreshes hostage to the
// mirror would wedge ring truncation. Nil-safe and a no-op on
// unreplicated logs.
func (l *Log) DropMirror() {
	if l == nil || l.cfg.Replica == nil {
		return
	}
	l.mu.Lock()
	if !l.replicaDown {
		l.replicaDown = true
		l.cfg.Replica.Degraded.Inc()
	}
	l.mu.Unlock()
}

// Close drains the window (making every posted record durable if the
// fabric still works), stops the entities, and releases local resources.
// It does not publish a final checkpoint: the slot stays exactly as durable as the
// last acknowledged write, which is what Recover replays.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.wakeAllLocked()
	l.mu.Unlock()
	l.wg.Wait()
	l.teardown()
}

// CheckFence verifies over qp, a queue pair of the caller's to the memory
// node, that the ownership lease is still this log's: a CAS that expects
// (and rewrites) the unchanged fence word. A mismatch is ErrFenced — final;
// transient fabric faults retry. The trimmer asks before it publishes a
// checkpoint, the engine before it installs a table a takeover would
// orphan. (The commit pipeline queues its own CAS behind every run.)
// Nil-safe, and nil on a log without a fence.
func (l *Log) CheckFence(qp *rdma.QP) error {
	if l == nil || l.cfg.FenceWord == 0 {
		return nil
	}
	var swapped bool
	err := l.retrySync(func() error {
		var cerr error
		_, swapped, cerr = qp.CompareSwapSync(l.cfg.Fence, l.cfg.FenceWord, l.cfg.FenceWord)
		return cerr
	})
	if err != nil {
		return err
	}
	if !swapped {
		return ErrFenced
	}
	return nil
}

// --- truncation / checkpoint refresh ---------------------------------------

func (l *Log) trimLoop() {
	defer l.wg.Done()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for !l.closed && !l.broken && (!l.refreshReq || l.recovering) {
			l.trimCond.Wait()
		}
		if l.closed || l.broken {
			return
		}
		l.refreshReq = false
		l.mu.Unlock()
		blob, covered := l.cfg.Refresh()
		freed, err := l.publishRefresh(blob, covered)
		l.mu.Lock()
		if err != nil {
			l.failLocked(fmt.Errorf("wal: checkpoint refresh: %w", err))
			return
		}
		if freed == 0 && l.ringParked > 0 && l.cfg.Kick != nil {
			// Every flush that completes requests a refresh, so a kick the
			// engine declines now is asked again when its queue has drained.
			l.mu.Unlock()
			l.cfg.Kick()
			l.mu.Lock()
		}
	}
}

// publishRefresh writes blob into the inactive checkpoint slot, flips the
// header to it (also advancing the ring start past every durable record
// the checkpoint covers), and only then — once the new header is durable
// — releases the trimmed ring space for reuse. A crash at any point
// leaves either the old or the new header, each self-consistent. It
// returns the ring bytes released.
func (l *Log) publishRefresh(blob []byte, covered uint64) (freed int, err error) {
	if len(blob) > l.ckptCap {
		l.cfg.Metrics.CkptSkips.Inc()
		return 0, nil
	}
	l.trimMu.Lock()
	defer l.trimMu.Unlock()

	l.mu.Lock()
	if covered < l.durableCovered {
		covered = l.durableCovered // horizons never move backwards
	}
	target := 1 - l.ckptSlot
	epoch := l.epoch
	if l.cfg.Replica != nil {
		l.pubSeq++
	}
	tag := l.pubSeq
	// Trim plan: pop durable records fully below the horizon. The frees
	// are applied only after the header lands. While a truncation hold is
	// in force (shard migration reading the tail) nothing is popped — the
	// checkpoint still publishes, but every live record stays readable.
	trimN := 0
	if l.holdTrunc == 0 {
		for _, r := range l.live {
			if r.lsn > l.durableLSN || r.maxSeq > covered {
				break
			}
			trimN++
			freed += r.pad + r.size
		}
	}
	startOff, startLSN := l.ring.tail, l.nextLSN // nothing survives: the next record starts the ring
	if trimN < len(l.live) {
		startOff, startLSN = l.live[trimN].off, l.live[trimN].lsn
	}
	l.mu.Unlock()

	// A deposed owner must not clobber the new owner's checkpoint slots or
	// header: fence before touching the slot. (A takeover landing after
	// this check can still race the header write below — the harm is
	// bounded to one stale-but-self-consistent header, which the new
	// owner's own FinishRecovery header supersedes; real deployments close
	// even that window by revoking the deposed node's rkeys.)
	if err := l.CheckFence(l.trimQP); err != nil {
		return 0, err
	}
	h := Header{
		Epoch: epoch, StartOff: uint64(startOff), StartLSN: startLSN, Covered: covered,
		CkptCap: uint32(l.ckptCap), CkptSlot: target,
		CkptLen: uint32(len(blob)), CkptCRC: crc32.ChecksumIEEE(blob),
		Tag: tag,
	}
	if done, err := l.publishPair(blob, h); err != nil || !done {
		return 0, err
	}

	l.mu.Lock()
	l.live = l.live[trimN:]
	l.ring.used -= freed
	l.durableCovered = covered
	l.ckptSlot = target
	l.cfg.Metrics.Truncations.Inc()
	if freed > 0 {
		l.ringCond.Broadcast()
	}
	l.mu.Unlock()
	return freed, nil
}

// publishPair makes (blob, h) the slot's recovery baseline: the blob into
// the checkpoint slot h names, then the header flip. Replica first: ring
// space freed by h is only reused once BOTH headers have advanced past it,
// so each slot image stays individually recoverable wherever a crash
// lands; one between the two flips leaves the replica one Tag ahead.
// done=false: a named table is not mirrored yet, the previous pair stays.
func (l *Log) publishPair(blob []byte, h Header) (done bool, err error) {
	if l.mirrorActive() {
		done, err = l.mirrorCheckpoint(blob, h)
		if err != nil {
			if err = l.mirrorFailed(err); err != nil {
				return false, err
			}
		} else if !done {
			return false, nil
		}
	}
	if len(blob) > 0 {
		if err := l.writeSlot(l.trimQP, l.cfg.Slot.Add(h.CkptOffset()), blob); err != nil {
			return false, err
		}
	}
	return true, l.writeSlot(l.trimQP, l.cfg.Slot, encodeHeader(h))
}

// mirrorCheckpoint publishes the checkpoint pair half that lives on the
// mirror slot: the blob — translated into replica-side table addresses —
// into the target checkpoint slot, then the replica header. done=false
// means the blob cannot be translated (or does not fit) yet.
func (l *Log) mirrorCheckpoint(blob []byte, h Header) (done bool, err error) {
	rc := l.cfg.Replica
	rblob := blob
	if rc.Translate != nil && len(blob) > 0 {
		var ok bool
		if rblob, ok = rc.Translate(blob); !ok {
			return false, nil
		}
	}
	if len(rblob) > l.ckptCap {
		l.cfg.Metrics.CkptSkips.Inc()
		return false, nil
	}
	if len(rblob) > 0 {
		if werr := l.writeReplica(h.CkptOffset(), rblob); werr != nil {
			return false, werr
		}
	}
	h.CkptLen = uint32(len(rblob))
	h.CkptCRC = crc32.ChecksumIEEE(rblob)
	if werr := l.writeReplica(0, encodeHeader(h)); werr != nil {
		return false, werr
	}
	if rc.TornHook != nil {
		rc.TornHook()
	}
	return true, nil
}

// FinishRecovery atomically switches a recovering log to a fresh, live
// epoch: the caller has re-applied and flushed every surviving record,
// so the new checkpoint (built by Refresh) covers them all and the ring
// restarts empty. A crash before the header write re-runs recovery
// against the untouched old state.
func (l *Log) FinishRecovery() error {
	l.mu.Lock()
	recovering := l.recovering
	l.mu.Unlock()
	if !recovering {
		return fmt.Errorf("wal: not recovering")
	}

	blob, covered := l.cfg.Refresh()
	if len(blob) > l.ckptCap {
		return fmt.Errorf("wal: recovery checkpoint (%d bytes) exceeds slot capacity %d", len(blob), l.ckptCap)
	}
	h := l.nextLife()
	h.Covered, h.CkptLen, h.CkptCRC = covered, uint32(len(blob)), crc32.ChecksumIEEE(blob)
	if done, err := l.publishPair(blob, h); err != nil {
		return err
	} else if !done {
		return fmt.Errorf("wal: recovery checkpoint not mirrorable")
	}

	l.mu.Lock()
	l.epoch = h.Epoch
	l.nextLSN = 1
	l.posted, l.durableLSN = 0, 0
	l.live = nil
	l.ring = byteRing{size: l.ringSize}
	l.durableCovered = covered
	l.ckptSlot = h.CkptSlot
	l.pubSeq = h.Tag
	l.recovering = false
	l.trimCond.Broadcast()
	l.mu.Unlock()
	return nil
}
