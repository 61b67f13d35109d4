package engine

import (
	"dlsm/internal/keys"
	"dlsm/internal/memtable"
)

// Batch buffers Put/Delete operations so Session.Apply can claim one
// sequence range for all of them: one fetch-add and one switch check
// instead of per-entry claims (API v2). Keys and values are copied into an
// internal arena, so callers may reuse their slices immediately. A Batch
// is not safe for concurrent use; Reset recycles its memory.
type Batch struct {
	buf  []byte
	ents []batchEnt
}

type batchEnt struct {
	koff, klen int
	voff, vlen int
	del        bool
}

// Put records key -> value.
func (b *Batch) Put(key, value []byte) {
	ko := len(b.buf)
	b.buf = append(b.buf, key...)
	vo := len(b.buf)
	b.buf = append(b.buf, value...)
	b.ents = append(b.ents, batchEnt{koff: ko, klen: len(key), voff: vo, vlen: len(value)})
}

// Delete records a tombstone for key.
func (b *Batch) Delete(key []byte) {
	ko := len(b.buf)
	b.buf = append(b.buf, key...)
	b.ents = append(b.ents, batchEnt{koff: ko, klen: len(key), del: true})
}

// Len returns the number of buffered operations.
func (b *Batch) Len() int { return len(b.ents) }

// Reset clears the batch, keeping its arena for reuse.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.ents = b.ents[:0]
}

// Entry returns operation i: its key, value (nil for deletes), and whether
// it is a delete. Slices point into the batch arena and are valid until
// Reset.
func (b *Batch) Entry(i int) (key, value []byte, del bool) {
	e := b.ents[i]
	key = b.buf[e.koff : e.koff+e.klen]
	if !e.del {
		value = b.buf[e.voff : e.voff+e.vlen]
	}
	return key, value, e.del
}

// Apply writes every operation in the batch. Under SwitchSeqRange one
// fetch-add claims the whole contiguous sequence range [hi-n+1, hi], so
// the per-write atomic traffic of §IV is paid once per batch; entries are
// then routed to whichever MemTable owns their sequence (a batch may span
// a range boundary). Under SwitchLocked the global write lock is taken
// once for the batch instead of once per entry.
//
// Entries become visible individually as they are inserted — Apply is a
// throughput construct, not a transaction.
func (s *Session) Apply(b *Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
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

	var lo uint64
	var locked *memtable.MemTable
	switch db.opts.SwitchPolicy {
	case SwitchSeqRange:
		hi := db.seq.Add(uint64(n))
		lo = hi - uint64(n) + 1
		s.claim.Store(lo)
	case SwitchLocked:
		db.writeMu.Lock()
		db.charge(db.opts.SyncOverhead)
		hi := db.seq.Add(uint64(n))
		lo = hi - uint64(n) + 1
		s.claim.Store(lo)
		locked = db.cur.Load()
		if locked.ApproximateSize() >= db.opts.MemTableSize {
			db.sizeSwitch(locked)
			locked = db.cur.Load()
		}
		db.writeMu.Unlock()
	}

	for i := 0; i < n; i++ {
		seq := keys.Seq(lo + uint64(i))
		// Advancing the claim releases already-inserted prefixes to the
		// flushers' quiesce barrier.
		s.claim.Store(uint64(seq))
		mt := locked
		if mt == nil {
			mt = db.tableFor(seq)
		}
		key, value, del := b.Entry(i)
		kind := keys.KindSet
		if del {
			kind = keys.KindDelete
		}
		mt.BeginWrite()
		s.chargeBatched(db.opts.Costs.MemInsert + db.opts.WritePathExtra)
		mt.Add(seq, kind, key, value)
		mt.EndWrite()
	}
	s.claim.Store(0)
	db.stats.Writes.Add(int64(n))

	// One size-triggered switch check for the whole batch (SeqRange).
	if db.opts.SwitchPolicy == SwitchSeqRange {
		if mt := db.cur.Load(); mt.ApproximateSize() >= db.opts.MemTableSize {
			db.sizeSwitch(mt)
		}
	}

	// Durability: one log append covers the batch's whole sequence range,
	// so the commit path posts it as one run of records (one doorbell).
	if db.walEnabled() {
		return db.walAppend(lo, n, func(i int) (byte, []byte, []byte) {
			key, value, del := b.Entry(i)
			if del {
				return byte(keys.KindDelete), key, value
			}
			return byte(keys.KindSet), key, value
		})
	}
	return nil
}
