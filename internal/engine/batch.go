package engine

import (
	"dlsm/internal/keys"
	"dlsm/internal/wal"
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

// walEntry is Entry in the shape the log's framing callback takes.
func (b *Batch) walEntry(i int) (kind byte, key, value []byte) {
	key, value, del := b.Entry(i)
	if del {
		return byte(keys.KindDelete), key, value
	}
	return byte(keys.KindSet), key, value
}

// Apply writes every operation in the batch. Under SwitchSeqRange one
// fetch-add claims the whole contiguous sequence range [lo, lo+n), so the
// per-write atomic traffic of §IV is paid once per batch; entries are then
// routed to whichever MemTable owns their sequence (a batch may span a
// range boundary). Under SwitchLocked the global write lock is taken once
// for the batch instead of once per entry. With the log on, the batch is
// one record and one doorbell, posted before the first insert (see write);
// a batch too big for one record is claimed and posted a record's worth at
// a time.
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

	var ent func(int) (byte, []byte, []byte) // non-nil: this write is logged
	var tok wal.Token
	if db.walEnabled() {
		ent = b.walEntry
	}
	for i := 0; i < n; {
		end := n
		if ent != nil {
			var err error
			if tok, err = db.wal.Reserve(i, n, ent); err != nil {
				return err
			}
			end = tok.End()
		}
		lo, locked := s.claimSeqs(end - i)
		if ent != nil {
			if err := db.wal.Post(tok, lo, ent); err != nil {
				s.claim.Store(0)
				return err
			}
		}
		db.stats.Writes.Add(int64(end - i))
		for seq := keys.Seq(lo); i < end; i, seq = i+1, seq+1 {
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
	}

	// One size-triggered switch check for the whole batch (SeqRange).
	if db.opts.SwitchPolicy == SwitchSeqRange {
		if mt := db.cur.Load(); mt.ApproximateSize() >= db.opts.MemTableSize {
			db.sizeSwitch(mt)
		}
	}
	if ent != nil {
		return s.walCommit(tok)
	}
	return nil
}
