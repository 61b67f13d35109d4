package engine

import (
	"fmt"
	"sort"

	"dlsm/internal/bloom"
	"dlsm/internal/keys"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sstable"
	"dlsm/internal/version"
	"dlsm/internal/wal"
)

// loadedSlot is a log slot's image brought to the compute node: the
// header, the surviving ring records, and the decoded checkpoint (table
// metas by level plus the sequence horizon). qp is still connected to the
// slot's memory node; the caller closes it or keeps it.
type loadedSlot struct {
	slot  memnode.LogSlot
	qp    *rdma.QP
	h     wal.Header
	recs  []wal.Record
	files [version.NumLevels][]*sstable.Meta
	seq   uint64
}

// loadSlot is the one way a log slot is read back: find the slot b names
// on srv, copy its image with one one-sided read, parse it and decode its
// checkpoint. footers additionally restores the checkpoint tables' cached
// indexes and bloom filters from their footers in remote memory, which a
// caller about to serve reads from them needs.
func loadSlot(cn *rdma.Node, srv *memnode.Server, b Binding, footers bool) (ld loadedSlot, err error) {
	var ok bool
	if ld.slot, ok = srv.FindLog(b.SlotKey()); !ok {
		return ld, fmt.Errorf("engine: no log slot for owner %d shard %d on %s (only a DB opened with Options.Durability leaves one)", b.Owner, b.Shard, srv.Node().Name)
	}
	ld.qp = cn.NewQP(srv.Node())
	defer func() {
		if err != nil {
			ld.qp.Close()
		}
	}()
	img, err := readSlotImage(cn, ld.qp, ld.slot)
	if err != nil {
		return ld, fmt.Errorf("engine: reading log slot: %w", err)
	}
	var blob []byte
	if ld.h, blob, ld.recs, err = wal.ParseImage(img); err != nil {
		return ld, fmt.Errorf("engine: parsing log slot: %w", err)
	}
	if len(blob) > 0 {
		if ld.files, ld.seq, err = decodeCheckpoint(blob); err != nil {
			return ld, fmt.Errorf("engine: log checkpoint: %w", err)
		}
	}
	if footers {
		if err = reloadFooters(cn, ld.qp, ld.files); err != nil {
			return ld, fmt.Errorf("engine: reloading table footers: %w", err)
		}
	}
	return ld, nil
}

// Recover rebuilds a DB on a fresh compute node from the remote
// write-ahead log the crashed one left behind (§VIII). b must name the
// slot — and opts the sizing-relevant options — the dead DB used. The slot
// image is read back with one-sided verbs, its checkpoint installs the
// table metadata (indexes and filters reload from the table footers in
// remote memory), and every surviving log record above the checkpoint's
// covered horizon is re-applied in original sequence order. In Sync mode
// that restores 100% of acknowledged writes: a record missing past the
// torn tail was never durable, so its write was never acknowledged. The
// log then switches to a fresh epoch and the DB is live, logging again.
func Recover(cn *rdma.Node, srv *memnode.Server, opts Options, b Binding) (*DB, error) {
	if opts.Durability == DurabilityNone {
		return nil, fmt.Errorf("engine: Recover requires Options.Durability")
	}
	ld, err := loadSlot(cn, srv, b, true)
	if err != nil {
		return nil, err
	}
	ld.qp.Close()

	// Open with the log in recovery mode: the slot stays untouched until
	// FinishRecovery, so a crash during replay re-runs recovery against
	// the identical surviving state.
	db, err := openMode(cn, srv, opts, b, true, false)
	if err != nil {
		return nil, err
	}
	db.installCheckpoint(ld.files, ld.seq)

	// With replication still on, rebuild the mirror's table map from the
	// replica checkpoint slot and re-copy anything missing, so every
	// installed table translates when FinishRecovery publishes on both
	// slots.
	if db.mirror != nil {
		if err := db.seedMirror(ld.files); err != nil {
			db.Close()
			return nil, fmt.Errorf("engine: seeding replica mirror: %w", err)
		}
	}

	// Replay in original sequence order. Entries at or below the covered
	// horizon are already in checkpoint tables; above it a record may
	// duplicate a flushed-but-not-yet-covered table's entries, which is
	// harmless — the replay re-asserts the same value at a newer sequence.
	var entries []wal.Entry
	for _, r := range ld.recs {
		for _, e := range r.Entries {
			if e.Seq > ld.h.Covered {
				entries = append(entries, e)
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	if err := db.replayEntries(entries); err != nil {
		db.Close()
		return nil, fmt.Errorf("engine: replaying log: %w", err)
	}

	// Flush the replayed writes so the recovery checkpoint covers them,
	// then atomically switch the slot to a fresh, empty-ring epoch.
	db.Flush()
	if err := db.wal.FinishRecovery(); err != nil {
		db.Close()
		return nil, fmt.Errorf("engine: finishing recovery: %w", err)
	}
	db.walLive.Store(true)
	return db, nil
}

// readSlotImage copies the whole log slot to local memory with one
// one-sided read.
func readSlotImage(cn *rdma.Node, qp *rdma.QP, slot memnode.LogSlot) ([]byte, error) {
	mr := cn.Register(int(slot.Size))
	defer cn.Deregister(mr)
	if err := qp.ReadSync(mr, 0, slot.Addr, int(slot.Size)); err != nil {
		return nil, err
	}
	return append([]byte(nil), mr.Bytes(0, int(slot.Size))...), nil
}

// reloadFooters restores the cached index and bloom filter of every slim
// checkpoint meta from its table footer in remote memory (the same
// reload the memory node does before compacting, but over the fabric).
func reloadFooters(cn *rdma.Node, qp *rdma.QP, files [version.NumLevels][]*sstable.Meta) error {
	var scratch *rdma.MemoryRegion
	defer func() {
		if scratch != nil {
			cn.Deregister(scratch)
		}
	}()
	for _, level := range files {
		for _, m := range level {
			need := m.IndexLen + m.FilterLen
			wantIndex := m.IndexLen > 0 && m.Index.NumRecords() == 0
			wantFilter := m.FilterLen > 0 && len(m.Filter) == 0
			if need == 0 || (!wantIndex && !wantFilter) {
				continue
			}
			if scratch == nil || scratch.Size() < need {
				if scratch != nil {
					cn.Deregister(scratch)
				}
				scratch = cn.Register(need)
			}
			if err := qp.ReadSync(scratch, 0, m.Data.Add(int(m.Size)), need); err != nil {
				return err
			}
			if wantIndex {
				raw := append([]byte(nil), scratch.Bytes(0, m.IndexLen)...)
				m.Index = sstable.NewIndexFromRaw(raw, m.Format)
			}
			if wantFilter {
				m.Filter = append(bloom.Filter(nil), scratch.Bytes(m.IndexLen, m.FilterLen)...)
			}
		}
	}
	return nil
}

// replayEntries re-applies recovered log entries through the normal write
// path (batched, with fresh sequence numbers above the checkpoint
// horizon). The write-path WAL hooks are gated off until FinishRecovery,
// so replays are not re-logged record-by-record — the recovery
// checkpoint covers them wholesale.
func (db *DB) replayEntries(entries []wal.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s := db.NewSession()
	defer s.Close()
	var b Batch
	apply := func() error {
		if b.Len() == 0 {
			return nil
		}
		err := s.Apply(&b)
		b.Reset()
		return err
	}
	for _, e := range entries {
		if keys.Kind(e.Kind) == keys.KindDelete {
			b.Delete(e.Key)
		} else {
			b.Put(e.Key, e.Value)
		}
		if b.Len() >= 512 {
			if err := apply(); err != nil {
				return err
			}
		}
	}
	if err := apply(); err != nil {
		return err
	}
	s.FlushCPU()
	db.stats.WALReplayed.Add(int64(len(entries)))
	return nil
}
