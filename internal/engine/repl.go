package engine

import (
	"encoding/binary"

	"dlsm/internal/repl"
	"dlsm/internal/sstable"
	"dlsm/internal/version"
)

// openMirror creates the SSTable mirror (internal/repl). Called from
// openMode before the WAL opens, so the log's checkpoint translation can
// consult the mirror from its first refresh.
func (db *DB) openMirror() {
	opts := &db.opts
	db.mirror = repl.NewMirror(repl.Config{
		Compute: db.cn,
		Primary: db.srv,
		Replica: opts.Replica,
		Mode:    opts.ReplMode,
		Sync:    opts.ReplAck.Sync(),
		RPC:     opts.CompactRPC,
		// Under AckPrimary a dead replica must not wedge the primary: once
		// extent mirroring degrades, a checkpoint naming unmirrored tables
		// can never translate, so the WAL mirror is dropped with it — the
		// log keeps truncating against the primary copy alone.
		OnDegrade: func() { db.wal.DropMirror() },
	})
}

// attachMirror replicates a freshly built table before it is installed. A
// nil error without a replica is the common fast path. Under a Sync
// ack policy a failure is returned and the caller still owns the primary
// extent; under AckPrimary the mirror degrades and the table stays
// single-copy.
func (db *DB) attachMirror(m *sstable.Meta) error {
	if db.mirror == nil {
		return nil
	}
	return db.mirror.Attach(m)
}

// attachOutputs replicates every output of a compaction before the version
// edit installs them. On failure the already-attached replica copies and
// all primary output extents are routed through the GC worker (routeFree
// releases both sides), so an abandoned compaction leaks nothing on either
// memory node.
func (db *DB) attachOutputs(outputs []*sstable.Meta) error {
	if db.mirror == nil {
		return nil
	}
	for _, m := range outputs {
		if err := db.mirror.Attach(m); err != nil {
			for _, o := range outputs {
				if !db.gcCh.TrySend(o) {
					panic("engine: gc queue overflow")
				}
			}
			return err
		}
	}
	return nil
}

// storageDead reports whether a memory node this DB must write into is
// permanently gone from its perspective: its own host, the primary memory
// node, or — under a Sync ack policy — the replica. Retry loops surrender
// instead of hammering a dead node; with replication the surviving copy is
// what Recover promotes.
func (db *DB) storageDead() bool {
	if db.cn.Crashed() || db.mn.Crashed() {
		return true
	}
	return db.opts.Replica != nil && db.opts.ReplAck.Sync() && db.opts.Replica.Node().Crashed()
}

// translateCheckpoint rewrites a slim checkpoint blob's table addresses to
// their replica-side extents; the WAL publishes the result on the mirror
// slot so a promoted replica's checkpoint names bytes the replica actually
// holds. ok=false means some named table has no replica copy yet — the
// mirror publish is skipped and the previous slot pair stays.
func (db *DB) translateCheckpoint(blob []byte) ([]byte, bool) {
	files, seq, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, false
	}
	for level := range files {
		for i, m := range files[level] {
			addr, extent, ok := db.mirror.Lookup(m.ID)
			if !ok {
				return nil, false
			}
			c := *m
			c.Data = addr
			c.Extent = extent
			// The replica extent came from the replica's host-shared
			// compute allocator: after a promotion, routeFree must free it
			// locally there, not RPC the (dead) primary.
			c.CreatorNode = db.cn.ID
			files[level][i] = &c
		}
	}
	return encodeCheckpointFiles(files, seq, true), true
}

// encodeCheckpointFiles is encodeCheckpointAt over bare meta slices (the
// translated replica view has no version object). Same wire format.
func encodeCheckpointFiles(files [version.NumLevels][]*sstable.Meta, seq uint64, slim bool) []byte {
	enc := sstable.EncodeMeta
	if slim {
		enc = sstable.EncodeMetaSlim
	}
	b := binary.LittleEndian.AppendUint64(nil, seq)
	for level := 0; level < version.NumLevels; level++ {
		metas := files[level]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(metas)))
		for _, m := range metas {
			e := enc(m)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(e)))
			b = append(b, e...)
		}
	}
	return b
}

// seedMirror rebuilds the mirror's table map during a compute-crash
// recovery with replication still on: adopt the replica checkpoint slot's
// last published view (its metas carry the replica-side addresses), then
// re-mirror any installed table missing from it — a copy Released during a
// torn publish, or one the replica slot never saw. After healing, every
// installed table translates, so FinishRecovery can publish on both slots.
func (db *DB) seedMirror(files [version.NumLevels][]*sstable.Meta) error {
	if ld, err := loadSlot(db.cn, db.opts.Replica, db.bind, false); err == nil {
		ld.qp.Close()
		var metas []*sstable.Meta
		for _, lvl := range ld.files {
			metas = append(metas, lvl...)
		}
		db.mirror.Seed(metas)
	}
	for _, lvl := range files {
		for _, m := range lvl {
			if db.mirror.Has(m.ID) {
				continue
			}
			if err := db.mirror.Attach(m); err != nil {
				return err
			}
		}
	}
	return nil
}
