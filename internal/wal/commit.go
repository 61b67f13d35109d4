package wal

import (
	"errors"
	"fmt"
	"math"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

const (
	// commitWindow bounds the doorbells in flight. Behind a full window
	// staged records wait for a completion and leave as one run: they
	// coalesce exactly when the fabric is the bottleneck, and an idle log
	// never waits a round trip for company.
	commitWindow = 16
	// stagingSize bounds the bytes staged but not yet acknowledged.
	stagingSize = 1 << 20
)

// padBytes is the wrap marker stamped at the ring's tail edge.
var padBytes = []byte{0xFF, 0xFF, 0xFF, 0xFF}

// Token identifies one reserved record and the entries [from, to) of the
// caller's batch it holds; Post frames it, Commit waits on it.
type Token struct {
	lsn      uint64
	from, to int
}

// End is the index one past the record's last entry: where the caller's
// next record, if the batch outgrew this one, starts.
func (t Token) End() int { return t.to }

// liveRec is one record resident in the ring, FIFO by LSN. Until it is
// acknowledged its frame also sits in the staging ring.
type liveRec struct {
	lsn    uint64
	off    int // ring offset
	size   int
	pad    int // ring bytes burned at the tail edge before it
	soff   int // staging offset of the frame; its pad marker, if any, sits just before
	sfree  int // staging bytes its acknowledgement releases (frame, marker, edge waste)
	loSeq  uint64
	maxSeq uint64
	framed bool     // Post has written the frame and set loSeq, maxSeq
	at     sim.Time // Reserve entry (wal.commit_wait_ns)
}

// doorbell is one posted, un-reaped run of contiguous records.
type doorbell struct {
	last   uint64 // LSN of the run's last record
	recs   int
	writes int // data writes posted: 2 when a pad marker rides along
	bytes  int // bytes those writes carry
	sfree  int // staging bytes the run's acknowledgement releases
}

// ackWaiter is one sync writer parked in Commit until lsn is durable.
type ackWaiter struct {
	lsn  uint64
	gate *sim.Gate
}

// byteRing hands out contiguous byte ranges of a ring in FIFO order. A
// range never wraps the edge: one that does not fit before it burns the
// rest of the ring as padding and starts at offset 0.
type byteRing struct{ size, tail, used int }

// fits reports whether need bytes can be taken now, and the edge padding
// that taking them would burn.
func (r *byteRing) fits(need int) (pad int, ok bool) {
	if r.tail+need > r.size {
		pad = r.size - r.tail
	}
	return pad, r.used+pad+need <= r.size
}

// take claims need bytes behind pad (as fits reported) and returns their offset.
func (r *byteRing) take(pad, need int) (off int) {
	if pad == 0 {
		off = r.tail
	}
	r.tail = (off + need) % r.size
	r.used += pad + need
	return off
}

// maxBody is the largest record body Reserve will plan: it must fit the
// staging ring beside a pad marker and a quarter of the remote ring.
func (l *Log) maxBody() int {
	return min(l.ringSize/4, l.stage.size-len(padBytes)) - recOverhead
}

// unusableLocked reports why the log accepts no appends right now.
func (l *Log) unusableLocked() error {
	switch {
	case l.closed:
		return ErrClosed
	case l.broken:
		return l.brokenErr
	case l.recovering:
		return fmt.Errorf("wal: log is recovering")
	}
	return nil
}

// Reserve claims the next LSN and a place in both rings for one record
// holding the longest prefix of the entries [from, n) a record has room
// for. It parks while either ring is full, so a writer reserves before it
// claims its sequence numbers: parked here under a claim it would block the
// very flush that frees the ring (DESIGN.md §14).
func (l *Log) Reserve(from, n int, ent func(i int) (kind byte, key, value []byte)) (Token, error) {
	at := l.env.Now()
	body, to := recFixed, from
	for maxBody := l.maxBody(); to < n; to++ {
		_, key, value := ent(to)
		sz := entryOverhead + len(key) + len(value)
		if body+sz > maxBody {
			break
		}
		body += sz
	}
	if to == from {
		return Token{}, ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, err := l.reserveLocked(body + recOverhead)
	if err != nil {
		return Token{}, err
	}
	rec.at = at
	l.live = append(l.live, rec)
	return Token{lsn: rec.lsn, from: from, to: to}, nil
}

// Post frames the reserved record — written exactly once, straight into the
// staging ring, its entries numbered consecutively from seqLo — and pumps.
// It never parks, so it may run under a sequence claim; records become
// durable in LSN order. An error means the log closed or broke since
// Reserve: the record will never be durable and the caller must not apply
// the write.
func (l *Log) Post(t Token, seqLo uint64, ent func(i int) (kind byte, key, value []byte)) error {
	l.mu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	rec := &l.live[l.liveIdx(t.lsn)]
	rec.loSeq, rec.maxSeq, rec.framed = seqLo, seqLo+uint64(t.to-t.from)-1, true
	appendRecord(l.staging.Bytes(rec.soff, rec.size)[:0], l.epoch, rec.lsn, seqLo, t.to-t.from,
		func(k int) (byte, []byte, []byte) { return ent(t.from + k) })
	size := rec.size
	l.cfg.Metrics.Appends.Inc()
	l.cfg.Metrics.AppendBytes.Add(int64(size))
	l.pumpLocked()
	l.mu.Unlock()
	if l.cfg.Charge != nil {
		l.cfg.Charge(size)
	}
	return nil
}

// Stage is Reserve then Post, record by record, for a caller that already
// holds its sequence numbers (entries [0,n) take seqLo onwards) and no
// claim a flush could wait on. It returns the token of the last record.
func (l *Log) Stage(seqLo uint64, n int, ent func(i int) (kind byte, key, value []byte)) (t Token, err error) {
	for i := 0; i < n && err == nil; i = t.to {
		if t, err = l.Reserve(i, n, ent); err == nil {
			err = l.Post(t, seqLo+uint64(i), ent)
		}
	}
	return t, err
}

// reserveLocked assigns the next LSN and claims its record's place in both
// rings, parking the stager while either is full. A full remote ring has
// the trimmer refresh the checkpoint and, if that frees nothing, kick the
// engine's flush pipeline; a full staging ring just waits for completions
// — the pipeline's backpressure.
func (l *Log) reserveLocked(need int) (liveRec, error) {
	stalledAt := sim.Time(-1)
	for {
		if err := l.unusableLocked(); err != nil {
			return liveRec{}, err
		}
		pad, ringOK := l.ring.fits(need)
		marker := 0
		if pad >= len(padBytes) {
			marker = len(padBytes) // the wrap marker rides in front of the frame
		}
		if l.stage.used == 0 {
			l.stage.tail = 0 // nothing staged: no edge to burn, every legal record fits
		}
		spad, stageOK := l.stage.fits(marker + need)
		if ringOK && stageOK {
			if stalledAt >= 0 {
				l.cfg.Metrics.RingStallNS.Add(int64(l.env.Now() - stalledAt))
			}
			rec := liveRec{lsn: l.nextLSN, size: need, pad: pad, sfree: spad + marker + need}
			l.nextLSN++
			rec.off = l.ring.take(pad, need)
			rec.soff = l.stage.take(spad, marker+need) + marker
			copy(l.staging.Bytes(rec.soff-marker, marker), padBytes)
			return rec, nil
		}
		if stalledAt < 0 {
			stalledAt = l.env.Now()
			l.cfg.Metrics.RingStalls.Inc()
		}
		if ringOK {
			l.stageCond.Wait()
			continue
		}
		l.refreshReq = true
		l.trimCond.Signal()
		l.ringParked++
		l.ringCond.Wait()
		l.ringParked--
	}
}

// Commit resolves a posted token. sync parks until the record — and every
// record before it — is durable in the remote ring; async returns
// immediately, only surfacing an already-broken log.
func (l *Log) Commit(t Token, sync bool) error {
	start := l.env.Now()
	err := l.await(t.lsn, sync)
	if err == nil && sync && t.lsn != 0 {
		l.cfg.Metrics.CommitPark.Observe(int64(l.env.Now() - start))
	}
	return err
}

// await reports whether lsn is durable (nil) or can no longer become so
// (the error that broke the log); park has it wait for one or the other.
func (l *Log) await(lsn uint64, park bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if park && l.durableLSN < lsn && !l.broken {
		// A private gate, kept sorted by LSN: an acknowledgement wakes the
		// writers it made durable, in LSN order, and nobody else.
		w := ackWaiter{lsn: lsn, gate: sim.NewGate()}
		i := len(l.waiters)
		l.waiters = append(l.waiters, w)
		for ; i > 0 && l.waiters[i-1].lsn > w.lsn; i-- {
			l.waiters[i] = l.waiters[i-1]
		}
		l.waiters[i] = w
		l.mu.Unlock()
		l.env.Clock().Park("wal.ack", w.gate)
		l.mu.Lock()
	}
	if l.durableLSN >= lsn {
		return nil
	}
	return l.brokenErr // nil for an unparked look at a healthy log
}

// wakeLocked opens the gate of every waiter whose LSN is <= upTo.
func (l *Log) wakeLocked(upTo uint64) {
	n := 0
	for ; n < len(l.waiters) && l.waiters[n].lsn <= upTo; n++ {
		l.env.Clock().Ready("wal.ack", l.waiters[n].gate)
	}
	l.waiters = l.waiters[:copy(l.waiters, l.waiters[n:])]
}

// failLocked marks the log permanently broken and wakes everyone.
func (l *Log) failLocked(err error) {
	if !l.broken {
		l.broken = true
		l.brokenErr = err
	}
	l.wakeLocked(math.MaxUint64)
	l.wakeAllLocked()
}

// wakeAllLocked has every parked entity and stager re-read the log state.
func (l *Log) wakeAllLocked() {
	l.doneCond.Broadcast()
	l.stageCond.Broadcast()
	l.ringCond.Broadcast()
	l.trimCond.Broadcast()
}

// liveIdx returns the position of lsn in live (LSNs are consecutive).
func (l *Log) liveIdx(lsn uint64) int { return int(lsn - l.live[0].lsn) }

// pumpLocked posts every run the window has room for, in whichever entity
// made one postable: posting never blocks (the window is far below the
// queue pair's depth), so it runs under the log mutex.
func (l *Log) pumpLocked() {
	if l.broken || l.rewinding {
		return
	}
	for l.posted < l.nextLSN-1 && len(l.inflight) < l.window {
		i := l.liveIdx(l.posted + 1)
		if !l.live[i].framed {
			break // reserved only: its writer's Post pumps again
		}
		d := l.postRun(l.qp, l.cfg.Slot, i, len(l.live))
		if l.fenceWRs > 0 {
			// Ownership fence, queued right behind the bytes it guards. If
			// the lease moved while they were in flight, the new owner's
			// slot read may predate them — so they must never ack.
			l.qp.CompareSwap(l.cfg.Fence, l.cfg.FenceWord, l.cfg.FenceWord, 0)
		}
		l.posted = d.last
		l.inflight = append(l.inflight, d)
		l.cfg.Metrics.Inflight.Add(1)
		l.doneCond.Signal()
	}
}

// postRun posts, over qp to the slot at base, the run that starts at
// live[i]: the framed records before end that follow it contiguously in
// both rings (at most maxRun), carried by one one-sided write — plus the
// pad marker's when the run opens a new lap.
func (l *Log) postRun(qp *rdma.QP, base rdma.RemoteAddr, i, end int) doorbell {
	first, last := &l.live[i], &l.live[i]
	d := doorbell{recs: 1, writes: 1, sfree: first.sfree}
	for j := i + 1; j < end && d.recs < l.maxRun; j++ {
		r := &l.live[j]
		if !r.framed || r.off != last.off+last.size || r.soff != last.soff+last.size {
			break
		}
		last = r
		d.recs++
		d.sfree += r.sfree
	}
	n := last.soff + last.size - first.soff
	d.last, d.bytes = last.lsn, n
	if m := len(padBytes); first.pad >= m {
		qp.Write(l.staging, first.soff-m, base.Add(l.ringBase+l.ringSize-first.pad), m, 0)
		d.writes++
		d.bytes += m
	}
	qp.Write(l.staging, first.soff, base.Add(l.ringBase+first.off), n, 0)
	return d
}

// completeLoop is the completion entity: it reaps doorbells in posting
// order, mirrors and acknowledges the clean ones, and rewinds the poster
// behind a failed verb.
func (l *Log) completeLoop() {
	defer l.wg.Done()
	l.mu.Lock()
	defer l.mu.Unlock()
	var batch []doorbell
	for {
		for len(l.inflight) == 0 && !l.closed && !l.broken {
			l.doneCond.Wait()
		}
		if l.broken || len(l.inflight) == 0 {
			// Closed with the window drained: everything posted is durable.
			// A record still behind a reserved-only one never will be.
			if l.posted < l.nextLSN-1 {
				l.failLocked(ErrClosed)
			}
			return
		}
		batch = append(batch[:0], l.inflight...)
		from := l.durableLSN + 1
		l.mu.Unlock()
		clean, err := l.reap(batch)
		var merr error
		if clean > 0 {
			merr = l.mirror(from, batch[clean-1].last)
		}
		l.mu.Lock()
		// What a pump would post now sits behind a failed doorbell.
		l.rewinding = err != nil
		switch {
		case merr != nil:
			l.failLocked(fmt.Errorf("wal: append doorbell: %w", merr))
		case clean > 0:
			l.ackLocked(batch[:clean])
		}
		if err != nil && !l.broken {
			l.rewindLocked(err)
		}
	}
}

// reap collects batch's completions in posting order: it parks for the
// head doorbell, goes on while the next one's have already arrived, and
// stops at the first failure, reporting how many completed clean. A
// doorbell it starts it reaps whole, so the CQ stays aligned.
func (l *Log) reap(batch []doorbell) (clean int, err error) {
	for i, d := range batch {
		for w := 0; w < d.writes+l.fenceWRs; w++ {
			c, ready := rdma.Completion{}, false
			if i > 0 && w == 0 {
				if c, ready = l.qp.PollCQ(); !ready {
					return i, nil
				}
			} else {
				c = l.qp.WaitCQ()
			}
			switch {
			case c.Op == rdma.OpCompareSwap && c.Err == nil && !c.Swapped:
				err = ErrFenced // definitive: the lease is gone for good
			case c.Err != nil && err == nil:
				err = c.Err
			}
		}
		if err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// ackLocked acknowledges done, the clean and mirrored head of the window:
// the frontier moves over it, its staging bytes become reusable, its
// writers wake, and the freed slots are refilled.
func (l *Log) ackLocked(done []doorbell) {
	now, last := l.env.Now(), done[len(done)-1].last
	for _, r := range l.live[l.liveIdx(l.durableLSN+1) : l.liveIdx(last)+1] {
		l.cfg.Metrics.CommitWait.Observe(int64(now - r.at))
	}
	for _, d := range done {
		l.stage.used -= d.sfree
		l.cfg.Metrics.Doorbells.Add(int64(d.writes))
		l.cfg.Metrics.GroupRecords.Observe(int64(d.recs))
	}
	l.durableLSN = last
	l.inflight = l.inflight[:copy(l.inflight, l.inflight[len(done):])]
	l.cfg.Metrics.Inflight.Add(-int64(len(done)))
	l.attempts = 0
	l.wakeLocked(l.durableLSN)
	l.stageCond.Broadcast()
	l.pumpLocked()
}

// rewindLocked handles the failed doorbell at the head of the window. A
// lost lease or a dead compute node is final. Anything else retries with
// capped exponential backoff: the doorbells behind the failure are
// discarded with it — nothing past a hole may acknowledge, landed or not —
// and the poster rewinds to the first un-acked record, whose bytes are
// still staged: the retry re-posts the same bytes in the same order.
func (l *Log) rewindLocked(err error) {
	l.attempts++
	switch {
	case errors.Is(err, ErrFenced):
		l.failLocked(err)
		return
	case l.cfg.Compute.Crashed():
		l.failLocked(fmt.Errorf("wal: append doorbell: %w", rdma.ErrQPBroken))
		return
	case l.attempts >= walMaxAttempts:
		l.failLocked(fmt.Errorf("wal: append doorbell: %w", err))
		return
	}
	drain := 0
	for _, d := range l.inflight[1:] { // the head was reaped whole
		drain += d.writes + l.fenceWRs
	}
	l.cfg.Metrics.Inflight.Add(-int64(len(l.inflight)))
	l.inflight = l.inflight[:0]
	l.mu.Unlock()
	for ; drain > 0; drain-- {
		l.qp.WaitCQ()
	}
	l.env.Sleep(min(walRetryBase<<(l.attempts-1), walRetryMax))
	l.mu.Lock()
	l.rewinding = false
	l.posted = l.durableLSN
	l.pumpLocked()
}

// mirror chains the records [from, to] onto the replica ring — the same
// staged bytes at the same ring offsets — after their primary completions,
// so under Sync no record acknowledges before it is on both copies.
func (l *Log) mirror(from, to uint64) error {
	if !l.mirrorActive() {
		return nil
	}
	rc := l.cfg.Replica
	var wrs, bytes int
	err := l.retrySync(func() error {
		l.mu.Lock()
		wrs, bytes = 0, 0
		for i, end := l.liveIdx(from), l.liveIdx(to)+1; i < end; {
			d := l.postRun(l.replQP, rc.Slot, i, end)
			wrs += d.writes
			bytes += d.bytes
			i += d.recs
		}
		l.mu.Unlock()
		var err error
		for ; wrs > 0; wrs-- {
			if c := l.replQP.WaitCQ(); c.Err != nil {
				err = c.Err
			}
		}
		return err
	})
	if err != nil {
		return l.mirrorFailed(err)
	}
	rc.Bytes.Add(int64(bytes))
	return nil
}
