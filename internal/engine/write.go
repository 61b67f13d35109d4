package engine

import (
	"errors"
	"time"

	"dlsm/internal/keys"
	"dlsm/internal/memtable"
	"dlsm/internal/sim"
	"dlsm/internal/wal"
)

// ErrClosed is returned by writes against a closed Session or DB.
var ErrClosed = errors.New("dlsm: closed")

// ErrStalled is returned when a write stalled longer than
// Options.StallTimeout. The write was not applied; retrying later is safe.
var ErrStalled = errors.New("dlsm: write stalled longer than StallTimeout")

// ErrReadOnly is returned by writes against a read-only secondary
// (OpenSecondary); only the shard's lease-holding primary may write.
var ErrReadOnly = errors.New("dlsm: read-only secondary")

// Put inserts key -> value through the session's thread context.
func (s *Session) Put(key, value []byte) error { return s.write(keys.KindSet, key, value) }

// Delete writes a tombstone for key.
func (s *Session) Delete(key []byte) error { return s.write(keys.KindDelete, key, nil) }

func (s *Session) write(kind keys.Kind, key, value []byte) error {
	db := s.db
	if s.closed.Load() {
		return ErrClosed
	}
	if db.readOnly {
		return ErrReadOnly
	}
	sp := db.m.writeLat.Span(db.m.clock)
	defer sp.End()
	if err := db.maybeStall(); err != nil {
		return err
	}

	// Durability: claim -> post -> insert -> wait (DESIGN.md §14). The log
	// record is reserved before the sequence is claimed — only Reserve can
	// park on the log — and posted before the insert, so its round trip
	// overlaps the MemTable work. A write the log refuses is not applied.
	var ent func(int) (byte, []byte, []byte) // non-nil: this write is logged
	var tok wal.Token
	if db.walEnabled() {
		ent = func(int) (byte, []byte, []byte) { return byte(kind), key, value }
		var err error
		if tok, err = db.wal.Reserve(0, 1, ent); err != nil {
			return err
		}
	}
	lo, mt := s.claimSeqs(1)
	seq := keys.Seq(lo)
	if ent != nil {
		if err := db.wal.Post(tok, lo, ent); err != nil {
			s.claim.Store(0) // the burned sequence maps to no entry
			return err
		}
	}
	if mt == nil {
		mt = db.tableFor(seq)
	}

	mt.BeginWrite()
	s.chargeBatched(db.opts.Costs.MemInsert + db.opts.WritePathExtra)
	mt.Add(seq, kind, key, value)
	mt.EndWrite()
	s.claim.Store(0)
	db.stats.Writes.Add(1)

	// Size-triggered switch (SeqRange): burn one sequence number as a
	// fence so every outstanding sequence still maps to the old table.
	if db.opts.SwitchPolicy == SwitchSeqRange &&
		mt.ApproximateSize() >= db.opts.MemTableSize && db.cur.Load() == mt {
		db.sizeSwitch(mt)
	}
	if ent != nil {
		return s.walCommit(tok)
	}
	return nil
}

// claimSeqs claims n consecutive sequence numbers and publishes the lowest
// as the session's in-flight claim, so flushers quiesce straggler inserts
// into already-switched tables. The caller clears the claim once its
// entries are inserted, and must not park on the log before that.
func (s *Session) claimSeqs(n int) (lo uint64, locked *memtable.MemTable) {
	db := s.db
	if db.opts.SwitchPolicy == SwitchSeqRange {
		// dLSM (§IV): a lock-free fetch-and-add assigns the sequences; the
		// table is determined by which range a sequence falls in
		// (tableFor), so only range-boundary writers ever touch the switch
		// lock.
		lo = db.seq.Add(uint64(n)) - uint64(n) + 1
		s.claim.Store(lo)
		return lo, nil
	}
	// Conventional ports (SwitchLocked): sequence assignment and the
	// full-table check are a critical section; the CPU burned while holding
	// the lock — the synchronization cost dLSM eliminates (§IV) — caps
	// aggregate write throughput regardless of threads.
	const syncOverhead = 450 * time.Nanosecond
	db.writeMu.Lock()
	db.charge(syncOverhead)
	lo = db.seq.Add(uint64(n)) - uint64(n) + 1
	s.claim.Store(lo)
	locked = db.cur.Load()
	if locked.ApproximateSize() >= db.opts.MemTableSize {
		db.sizeSwitch(locked)
		locked = db.cur.Load()
	}
	db.writeMu.Unlock()
	return lo, locked
}

// sizeSwitch retires mt because it reached its size limit, truncating its
// sequence range at a freshly burned fence sequence.
func (db *DB) sizeSwitch(mt *memtable.MemTable) {
	wait := db.m.switchWait.Span(db.m.clock)
	db.switchMu.Lock()
	wait.End()
	if db.cur.Load() == mt {
		fence := keys.Seq(db.seq.Add(1))
		mt.TruncateHi(fence + 1)
		db.switchLocked(mt)
	}
	db.switchMu.Unlock()
}

// tableFor resolves which MemTable owns seq, switching tables when seq runs
// past the current range (the double-checked locking of §IV, entered only
// by out-of-range writers).
func (db *DB) tableFor(seq keys.Seq) *memtable.MemTable {
	mt := db.cur.Load()
	if mt.Owns(seq) {
		return mt
	}
	// Slow path: only range-boundary writers reach here (§IV), so the count
	// and the wait histogram measure real switch-lock contention.
	db.m.switchContended.Inc()
	wait := db.m.switchWait.Span(db.m.clock)
	db.switchMu.Lock()
	wait.End()
	defer db.switchMu.Unlock()
	for {
		mt = db.cur.Load()
		if mt.Owns(seq) {
			return mt
		}
		if _, hi := mt.SeqRange(); seq >= hi {
			db.switchLocked(mt)
			continue
		}
		// Straggler: seq belongs to an already-switched table.
		for _, old := range db.recent {
			if old.Owns(seq) {
				return old
			}
		}
		panic("engine: sequence number owned by no table")
	}
}

// switchLocked makes mt immutable and installs a fresh MemTable owning the
// next consecutive sequence range. Caller holds switchMu.
func (db *DB) switchLocked(mt *memtable.MemTable) {
	_, hi := mt.SeqRange()
	db.memID++
	next := memtable.New(db.memID, hi, hi+keys.Seq(db.seqRangeLen()))
	db.cur.Store(next)
	db.recent = append(db.recent, next)
	// recent keeps only tables that can still receive straggler writes or
	// serve reads before flushing: cap its growth.
	if len(db.recent) > maxImmutables+4 {
		db.recent = db.recent[1:]
	}
	db.stats.MemSwitches.Add(1)

	db.mu.Lock()
	db.imms = append(db.imms, mt)
	db.immCount.Store(int32(len(db.imms)))
	db.mu.Unlock()
	if !db.flushCh.TrySend(mt) {
		// Cannot happen: maxImmutables stalls writers far below the
		// queue capacity. Blocking here would hold switchMu across a
		// sim wait, so fail loudly instead.
		panic("engine: flush queue overflow")
	}
}

// maybeStall blocks the writer while the LSM cannot absorb more writes:
// too many immutable tables (flush behind) or too many L0 files
// (level0_stop_writes_trigger, §XI-C1). Bulkload mode disables the latter.
// Returns ErrClosed if the DB closes mid-stall, or ErrStalled once the
// stall outlives Options.StallTimeout. Background progress (a flush or
// compaction completing) wakes the writer to re-evaluate; a virtual-time
// alarm at the deadline guarantees ErrStalled fires even when the
// background workers are wedged and never signal.
func (db *DB) maybeStall() error {
	if !db.shouldStall() {
		return nil
	}
	l0 := db.opts.L0StopTrigger > 0 && int(db.l0count.Load()) >= db.opts.L0StopTrigger
	start := db.env.Now()
	var alarm *sim.Alarm
	if t := db.opts.StallTimeout; t > 0 {
		// The timer entity parks on a cancellable alarm: if the deadline
		// fires it broadcasts bgCond so the loop below re-evaluates the
		// timeout; if the stall ends first, Cancel wakes it without leaving
		// a pending wakeup to drag the virtual clock forward.
		alarm = db.env.Clock().NewAlarm(start+sim.Time(t), "engine.stallTimer")
		db.env.Go(func() {
			if alarm.Wait() {
				db.mu.Lock()
				db.bgCond.Broadcast()
				db.mu.Unlock()
			}
		})
	}
	var err error
	db.mu.Lock()
	for db.shouldStall() {
		if db.closed {
			err = ErrClosed
			break
		}
		if t := db.opts.StallTimeout; t > 0 && time.Duration(db.env.Now()-start) >= t {
			err = ErrStalled
			break
		}
		db.bgCond.Wait()
	}
	db.mu.Unlock()
	if alarm != nil {
		alarm.Cancel()
	}
	d := int64(db.env.Now() - start)
	db.stats.StallTime.Add(d)
	db.stats.Stalls.Add(1)
	if l0 {
		db.stats.StallL0Time.Add(d)
	} else {
		db.stats.StallImmTime.Add(d)
	}
	return err
}

// maxImmutables is how many immutable MemTables may wait for a flush
// before writers stall.
const maxImmutables = 16

// shouldStall uses atomic counters only, so it is safe both before and
// while holding db.mu.
func (db *DB) shouldStall() bool {
	if db.opts.L0StopTrigger > 0 && int(db.l0count.Load()) >= db.opts.L0StopTrigger {
		return true
	}
	return int(db.immCount.Load()) >= maxImmutables
}

// chargeBatched coalesces per-write CPU charges per session.
func (s *Session) chargeBatched(d time.Duration) {
	s.pendingCPU += d
	if s.pendingCPU >= 20*time.Microsecond {
		s.db.charge(s.pendingCPU)
		s.pendingCPU = 0
	}
}

// FlushCPU drains the session's batched CPU debt; benchmarks call it at
// the end of a measured run.
func (s *Session) FlushCPU() {
	if s.pendingCPU > 0 {
		s.db.charge(s.pendingCPU)
		s.pendingCPU = 0
	}
}
