package engine

import (
	"fmt"

	"dlsm/internal/keys"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/wal"
)

// ErrFenced is returned by writes on a primary whose shard lease was
// taken over by another compute node (see Binding.Fence).
var ErrFenced = wal.ErrFenced

// Binding names the remote resources one engine binds on its memory node:
// the log slot, and the lease word its commits are fenced on. It is not
// configuration — the layer that places the engine (internal/shard)
// constructs it per shard, and only this package interprets it.
type Binding struct {
	// Owner (the logical compute identity) and Shard name the log slot.
	// Every live logging DB needs a distinct pair per memory node; Recover
	// and OpenSecondary find the slot again under the same pair.
	Owner, Shard int

	// Fence and FenceWord wire the shard's ownership lease (internal/lease)
	// into the log's commit path: each doorbell acknowledges only after a
	// one-sided CAS verifies the remote word at Fence still reads
	// FenceWord, so a lease takeover rejects the deposed owner's in-flight
	// appends with ErrFenced. The zero Fence disables fencing.
	Fence     rdma.RemoteAddr
	FenceWord uint64
}

// SlotKey names the bound log slot on the memory node (and, replicated,
// the mirrored slot on the replica). Failover tooling uses it too: after
// a torn checkpoint publish, an operator (or test) reads the 64-byte
// headers of both sides of a replicated slot pair — memnode.FindLog with
// this key on each memory node — and arbitrates with repl.PickSlotPair
// before choosing which node to Recover from.
func (b Binding) SlotKey() uint64 {
	return sim.Mix64(0x57A1D06, uint64(b.Owner), uint64(b.Shard)) | 1
}

// openWAL attaches the remote write-ahead log. With recovering=true the
// slot must already exist (Recover found it) and is left untouched until
// FinishRecovery; otherwise the slot is created on demand and stamped
// with a fresh epoch.
func (db *DB) openWAL(recovering bool) error {
	slot, err := db.srv.OpenLog(db.bind.SlotKey(), db.opts.WALSize)
	if err != nil {
		return fmt.Errorf("engine: opening wal slot: %w", err)
	}
	var replica *wal.ReplicaConfig
	if db.mirror != nil {
		// The replica slot uses the same logical key, so a promotion finds
		// the mirrored log exactly where Recover looks for the primary one.
		rslot, rerr := db.opts.Replica.OpenLog(db.bind.SlotKey(), db.opts.WALSize)
		if rerr != nil {
			return fmt.Errorf("engine: opening replica wal slot: %w", rerr)
		}
		if rslot.Size != slot.Size {
			return fmt.Errorf("engine: replica wal slot is %d bytes, primary %d", rslot.Size, slot.Size)
		}
		tel := db.cn.Fabric().Telemetry()
		replica = &wal.ReplicaConfig{
			Host:      db.opts.Replica.Node(),
			Slot:      rslot.Addr,
			Sync:      db.opts.ReplAck.Sync(),
			Translate: db.translateCheckpoint,
			Bytes:     tel.Counter("wal.mirror_bytes"),
			Degraded:  tel.Counter("wal.mirror_degraded"),
			TornHook:  db.opts.ReplTornHook,
		}
	}
	l, err := wal.Open(wal.Config{
		Env:       db.env,
		Compute:   db.cn,
		Host:      db.mn,
		Slot:      slot.Addr,
		SlotSize:  slot.Size,
		PerWrite:  db.opts.WALPerWriteCommit,
		Fence:     db.bind.Fence,
		FenceWord: db.bind.FenceWord,
		Replica:   replica,
		Refresh:   db.walCheckpoint,
		Kick:      db.walKick,
		Charge:    func(n int) { db.charge(sim.Bytes(n, db.opts.Costs.MemcpyByte)) },
		Metrics: wal.Metrics{
			Appends:      db.stats.WALAppends,
			AppendBytes:  db.stats.WALBytes,
			Doorbells:    db.stats.WALDoorbells,
			GroupRecords: db.m.walGroup,
			Truncations:  db.stats.WALTruncations,
			CkptSkips:    db.stats.WALCkptSkips,
			RingStalls:   db.stats.WALRingStalls,
			Replayed:     db.stats.WALReplayed,
			// Registered here, not in newStats: a Durability-off
			// deployment's snapshot stays free of them.
			RingStallNS: db.tel.Counter("wal.ring_stall_ns"),
			CommitWait:  db.tel.Histogram("wal.commit_wait_ns"),
			CommitPark:  db.tel.Histogram("wal.commit_park_ns"),
			Inflight:    db.tel.Gauge("wal.inflight_doorbells"),
		},
	}, recovering)
	if err != nil {
		return err
	}
	db.wal = l
	if !recovering {
		db.walLive.Store(true)
	}
	return nil
}

// walCheckpoint is the log's Refresh callback: a slim checkpoint blob
// (table metas without their cached index/filter bytes, which recovery
// reloads from the table footers in remote memory) plus the covered
// horizon. Every sequence number <= covered lives in a table the blob
// names: covered is one below the lowest sequence range still held by a
// live MemTable, and the flush quiesce barrier guarantees no in-flight
// write can land below an already-flushed table's range.
func (db *DB) walCheckpoint() (blob []byte, covered uint64) {
	db.switchMu.Lock()
	db.mu.Lock()
	lo, _ := db.cur.Load().SeqRange()
	covered = uint64(lo) - 1
	for _, mt := range db.imms {
		if l, _ := mt.SeqRange(); uint64(l)-1 < covered {
			covered = uint64(l) - 1
		}
	}
	seq := db.seq.Load()
	v := db.vs.Current()
	db.mu.Unlock()
	db.switchMu.Unlock()
	defer v.Unref()
	return encodeCheckpointAt(v, seq, true), covered
}

// walKick is the log's ring-full escape hatch: force the current
// MemTable toward a flush so the next checkpoint refresh can advance the
// truncation horizon. Mirrors the switch half of Flush without waiting
// for the queue to drain (stalled appends re-check for space as flushes
// complete). While immutables are still queued it declines: their flushes
// will free ring space and ask the trimmer again, and switching now would
// only cut an undersized table for the compaction backlog to chew on.
func (db *DB) walKick() {
	if db.immCount.Load() > 0 {
		return
	}
	db.switchMu.Lock()
	mt := db.cur.Load()
	if !mt.Empty() {
		if db.opts.SwitchPolicy == SwitchSeqRange {
			fence := keys.Seq(db.seq.Add(1))
			mt.TruncateHi(fence + 1)
		}
		db.switchLocked(mt)
	}
	db.switchMu.Unlock()
}

// walCommit resolves a posted write per the durability mode: Async only
// surfaces an already-broken log; Sync waits until the record's doorbell
// completes. A writer about to park first settles its batched CPU debt, so
// the model charges the insert where it happened — while the doorbell was
// in flight — and not to some later write. Call with no engine locks held.
func (s *Session) walCommit(tok wal.Token) error {
	sync := s.db.opts.Durability == DurabilitySync
	if sync {
		s.FlushCPU()
	}
	return s.db.wal.Commit(tok, sync)
}

// walEnabled reports whether writes should be logged right now (the log
// exists and recovery replay is not running).
func (db *DB) walEnabled() bool {
	return db.wal != nil && db.walLive.Load()
}

// WAL returns the remote log, or nil when Durability is DurabilityNone.
func (db *DB) WAL() *wal.Log { return db.wal }
