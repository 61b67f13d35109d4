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

// Recover rebuilds a DB on a fresh compute node from the remote
// write-ahead log the crashed one left behind (§VIII). opts must name the
// same (WALOwner, WALShard) — and sizing-relevant options — the dead DB
// used. The slot image is read back with one-sided verbs, its checkpoint
// installs the table metadata (indexes and filters reload from the table
// footers in remote memory), and every surviving log record above the
// checkpoint's covered horizon is re-applied in original sequence order.
// In Sync mode that restores 100% of acknowledged writes: a record
// missing past the torn tail was never durable, so its write was never
// acknowledged. The log then switches to a fresh epoch and the DB is
// live, logging again.
func Recover(cn *rdma.Node, srv *memnode.Server, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.Durability == DurabilityNone {
		return nil, fmt.Errorf("engine: Recover requires Options.Durability")
	}
	slot, ok := srv.FindLog(walSlotKey(opts))
	if !ok {
		return nil, fmt.Errorf("engine: no log slot for owner %d shard %d", opts.WALOwner, opts.WALShard)
	}

	qp := cn.NewQP(srv.Node())
	img, err := readSlotImage(cn, qp, slot)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("engine: reading log slot: %w", err)
	}
	h, blob, recs, err := wal.ParseImage(img)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("engine: parsing log slot: %w", err)
	}
	var files [version.NumLevels][]*sstable.Meta
	var seq uint64
	if len(blob) > 0 {
		if files, seq, err = decodeCheckpoint(blob); err != nil {
			qp.Close()
			return nil, fmt.Errorf("engine: log checkpoint: %w", err)
		}
	}
	err = reloadFooters(cn, qp, files)
	qp.Close()
	if err != nil {
		return nil, fmt.Errorf("engine: reloading table footers: %w", err)
	}

	// Open with the log in recovery mode: the slot stays untouched until
	// FinishRecovery, so a crash during replay re-runs recovery against
	// the identical surviving state.
	db, err := openMode(cn, srv, opts, true, false)
	if err != nil {
		return nil, err
	}
	db.installCheckpoint(files, seq)

	// With replication still on, rebuild the mirror's table map from the
	// replica checkpoint slot and re-copy anything missing, so every
	// installed table translates when FinishRecovery publishes on both
	// slots.
	if db.mirror != nil {
		if err := db.seedMirror(files); err != nil {
			db.Close()
			return nil, fmt.Errorf("engine: seeding replica mirror: %w", err)
		}
	}

	// Replay in original sequence order. Entries at or below the covered
	// horizon are already in checkpoint tables; above it a record may
	// duplicate a flushed-but-not-yet-covered table's entries, which is
	// harmless — the replay re-asserts the same value at a newer sequence.
	var entries []wal.Entry
	for _, r := range recs {
		for _, e := range r.Entries {
			if e.Seq > h.Covered {
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
