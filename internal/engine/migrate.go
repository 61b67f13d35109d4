package engine

import (
	"fmt"

	"dlsm/internal/keys"
	"dlsm/internal/rdma"
	"dlsm/internal/repl"
	"dlsm/internal/sstable"
	"dlsm/internal/version"
	"dlsm/internal/wal"
)

// Migration moves one shard engine's remote state to another memory node
// using the durability machinery replication and failover already trust:
// live SSTable extents are cloned server→server over the repl_clone RPC
// (the index-only replication verb), the cloned set is installed on the
// destination as a checkpoint, and the WAL tail above the cloned horizon
// is read back for replay. The shard layer drives the protocol:
//
//	m := StartMigration(src, dst)      // nil: fall back to iterator copy
//	m.CloneLive()                      // phase A, writers still running
//	— gate the range, drain writers —
//	fence := src.FenceNow()
//	tail, err := m.Finish(fence)       // diff-clone, install, read tail
//	— replay tail on dst, flip the routing table —
//	m.Close()                          // or m.Abort() on any failure
type Migration struct {
	src, dst *DB
	ship     *repl.Shipper         // source-server→destination-server extent transfer
	cloned   map[uint64]cloneEntry // by sstable.Meta.ID
}

// cloneEntry records one table's destination copy.
type cloneEntry struct {
	off    int64 // destination allocator offset
	extent int64
	addr   rdma.RemoteAddr
}

// StartMigration prepares a clone-based migration of src's state into the
// freshly opened dst (same compute node, different memory node). It
// returns nil when the fast path does not apply — source without a WAL
// (the tail replay needs one) or a non-native transport (extents must be
// addressable server-side) — and the caller falls back to the iterator
// copy path.
func StartMigration(src, dst *DB) *Migration {
	if src.wal == nil || src.opts.Transport != TransportNative || dst.opts.Transport != TransportNative {
		return nil
	}
	if src.mn == dst.mn {
		return nil
	}
	return &Migration{
		src: src, dst: dst,
		ship:   repl.NewShipper(src.cn, src.mn, dst.mn, src.opts.CompactRPC),
		cloned: map[uint64]cloneEntry{},
	}
}

// CloneLive clones every table in the source's current version that has
// not been cloned yet. Run before the write gate: writers (and flushes,
// compactions) continue; whatever the version gains or loses in the
// meantime is reconciled by Finish's differential pass.
func (m *Migration) CloneLive() error {
	v := m.src.vs.Current()
	defer v.Unref()
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			if err := m.cloneTable(f.Meta); err != nil {
				return err
			}
		}
	}
	return nil
}

// cloneTable copies one table's extent (data + index + filter footer) to
// the destination server. Tables living in the source's compute-shared
// data region travel server→server via repl_clone (n bytes on the wire,
// zero compute CPU); self-region tables — near-data compaction outputs the
// source server's RPC cannot address by data-region offset — fall back to
// a compute-mediated read+write.
func (m *Migration) cloneTable(meta *sstable.Meta) error {
	if _, ok := m.cloned[meta.ID]; ok {
		return nil
	}
	n := int(meta.Size) + meta.IndexLen + meta.FilterLen
	off, err := m.dst.alloc.Alloc(int(meta.Extent))
	if err != nil {
		return fmt.Errorf("engine: migrate: destination extent: %w", err)
	}
	dst := m.dst.dataMR.Addr(int(off))
	if meta.Data.RKey == m.src.dataMR.RKey() {
		err = m.ship.Clone(meta.Data, dst, n)
	} else {
		err = m.ship.Copy(meta.Data, dst, n)
	}
	if err != nil {
		m.dst.alloc.Free(off, int(meta.Extent))
		return fmt.Errorf("engine: migrate: %w", err)
	}
	m.cloned[meta.ID] = cloneEntry{off: off, extent: meta.Extent, addr: dst}
	return nil
}

// Finish completes the cut after the shard layer has gated the range,
// drained in-flight writers, and fenced the source at fence. Under a
// truncation hold on the source WAL it captures the source's table
// horizon (walCheckpoint's computation), clones the differential table
// set, frees clones whose source tables were compacted away, installs the
// translated checkpoint on the destination at sequence horizon fence, and
// returns the WAL tail — every acknowledged write in (covered, fence],
// which by the switch invariant is exactly the data still in source
// MemTables and therefore in no cloned table. The caller replays the tail
// on the destination in order; the union of cloned tables and replayed
// tail reconstructs every acknowledged write by construction.
func (m *Migration) Finish(fence keys.Seq) ([]wal.Entry, error) {
	m.src.wal.HoldTruncation()
	defer m.src.wal.ReleaseTruncation()

	m.src.switchMu.Lock()
	m.src.mu.Lock()
	lo, _ := m.src.cur.Load().SeqRange()
	covered := uint64(lo) - 1
	for _, mt := range m.src.imms {
		if l, _ := mt.SeqRange(); uint64(l)-1 < covered {
			covered = uint64(l) - 1
		}
	}
	v := m.src.vs.Current()
	m.src.mu.Unlock()
	m.src.switchMu.Unlock()
	defer v.Unref()

	live := map[uint64]bool{}
	var files [version.NumLevels][]*sstable.Meta
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			if err := m.cloneTable(f.Meta); err != nil {
				return nil, err
			}
			live[f.Meta.ID] = true
			files[level] = append(files[level], m.translate(f.Meta))
		}
	}
	for id, ce := range m.cloned {
		if !live[id] {
			m.dst.alloc.Free(ce.off, int(ce.extent))
			delete(m.cloned, id)
		}
	}

	m.dst.installCheckpoint(files, uint64(fence))
	if m.dst.wal != nil {
		// Make the destination slot's recovery baseline the state just
		// installed, as OpenFromCheckpoint does.
		if err := m.dst.wal.RefreshNow(); err != nil {
			return nil, err
		}
	}
	return m.src.wal.TailEntries(covered+1, uint64(fence))
}

// translate rewrites one source meta for the destination: same index,
// filter and key bounds (compute-local state travels with the struct),
// data pointing at the cloned extent, creator set to the compute node so
// the destination's GC frees the clone through its own allocator.
func (m *Migration) translate(meta *sstable.Meta) *sstable.Meta {
	c := *meta
	ce := m.cloned[meta.ID]
	c.Data = ce.addr
	c.CreatorNode = m.dst.cn.ID
	return &c
}

// Abort frees every cloned extent and releases transport resources. Call
// on any failure before the destination adopted the clones (after a
// successful Finish the destination's version owns them — call Close).
func (m *Migration) Abort() {
	for _, ce := range m.cloned {
		m.dst.alloc.Free(ce.off, int(ce.extent))
	}
	m.cloned = map[uint64]cloneEntry{}
	m.Close()
}

// Close releases the migration's transport resources only.
func (m *Migration) Close() { m.ship.Close() }
