package engine

import (
	"encoding/binary"
	"fmt"

	"dlsm/internal/keys"
	"dlsm/internal/memnode"
	"dlsm/internal/memtable"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

// flushesNearData reports whether this DB's flushes are built on the memory
// node: it has a live log for the memory node to build from and the native
// transport, the only one with a flush_build service (and no ablation).
func (db *DB) flushesNearData() bool {
	return db.walEnabled() && db.opts.Transport == TransportNative && db.opts.FlushAblation != FlushOnCompute
}

// flushRemote has the memory node build one MemTable's table: a flush_build
// RPC names where the entries already are — the log ring in the memory
// node's own DRAM — and ships the one thing the ring lacks, their order
// (DESIGN.md §11). The memory node serializes the table into its
// self-controlled area with the footer sections FlushAblation leaves it;
// any other is built here and one-sided-written into the extent's reserved
// footer space, so the table is byte-identical to a compute-built one. An
// error leaves nothing behind and the caller builds the table itself.
func (db *DB) flushRemote(w *bgWorker, mt *memtable.MemTable, capacity int64) (*sstable.Meta, error) {
	lo, hi := mt.SeqRange()
	// SeqRange is half-open [lo, hi) — the replay protocol is inclusive, so
	// the boundary seq hi (owned by the next memtable, possibly already in
	// the ring) must stay out.
	v, err := db.wal.ReplayView(uint64(lo), uint64(hi)-1)
	if err != nil {
		return nil, err
	}
	args := &memnode.FlushBuildArgs{
		Format:     db.opts.Format,
		BlockSize:  db.opts.BlockSize,
		BitsPerKey: db.opts.BitsPerKey,
		ExtentCap:  db.extentClass(),
		Capacity:   capacity,
		// The flush capacity formula is data estimate + footer headroom;
		// the headroom part is exactly what compute-built sections need.
		FooterReserve: capacity - mt.ApproximateSize(),
		BuildIndex:    db.opts.FlushAblation != FlushDataOnly,
		BuildFilter:   db.opts.FlushAblation == FlushNearData,
		Replay: memnode.FlushReplay{
			LogKey: db.bind.SlotKey(),
			Epoch:  v.Epoch,
			SeqLo:  uint64(lo),
			SeqHi:  uint64(hi) - 1,
			Spans:  v.Spans,
			Order:  db.flushOrder(mt, lo),
		},
		// A stable nonzero job id, so the memory node dedupes retried
		// deliveries (as for "compact"): instanceID tells sibling shards
		// apart, the memtable id and range base this DB's flushes.
		JobID: sim.Mix64(uint64(db.env.Seed()), uint64(db.cn.ID),
			db.instanceID, mt.ID(), uint64(lo)) | 1,
	}

	// One meta comes back: its index and filter fit the footer headroom.
	outputs, err := db.remoteJob(w, "flush_build", args.JobID, memnode.EncodeFlushBuildArgs(args),
		int(args.FooterReserve)+metaSlack, func(outputs []*sstable.Meta) error {
			if len(outputs) != 1 {
				return fmt.Errorf("engine: flush_build returned %d tables", len(outputs))
			}
			if m := outputs[0]; m.Count != mt.Len() {
				// Every logged entry is posted to the ring before its claim
				// clears and the quiesce barrier waited those claims out, so
				// the view is complete by construction, and the memory node
				// builds exactly the entries the order names or nothing.
				// Checked all the same: a mismatch drops the remote table.
				return fmt.Errorf("engine: memory node built %d of %d entries", m.Count, mt.Len())
			}
			return db.completeFooter(w, mt, outputs[0], args)
		})
	if err != nil {
		return nil, err
	}
	return outputs[0], nil
}

// flushOrder is the order section of a flush_build: for each of mt's
// entries in ascending internal-key order, its sequence number's offset
// from lo (u32, little-endian). The skiplist did the sorting when the
// entries were inserted; what is charged here is the walk that reads it
// out — the walk of a compute-side build over the internal keys alone, at
// that build's per-byte rate, plus the copy of the order it writes.
func (db *DB) flushOrder(mt *memtable.MemTable, lo keys.Seq) []byte {
	order := make([]byte, 0, 4*mt.Len())
	it := mt.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		_, seq, _, _ := keys.Parse(it.Key()) // a MemTable holds internal keys only
		order = binary.LittleEndian.AppendUint32(order, uint32(seq-lo))
	}
	db.charge(sim.Bytes(int(mt.KeyBytes()), db.opts.Costs.SerializeByte) + sim.Bytes(len(order), db.opts.Costs.MemcpyByte))
	return order
}

// completeFooter constructs and places whatever footer sections the
// memory node skipped (per-layer ablation). A geometry-only writer pass
// over the memtable (SkipData) rebuilds exactly the missing sections with
// the same block boundaries the remote data pass used, then one-sided
// writes land them in the extent's reserved footer space.
func (db *DB) completeFooter(w *bgWorker, mt *memtable.MemTable, m *sstable.Meta, args *memnode.FlushBuildArgs) error {
	needIndex := !args.BuildIndex
	needFilter := !args.BuildFilter && db.opts.BitsPerKey > 0
	if !needIndex && !needFilter {
		return nil // full footer already placed on the memory node
	}
	bw := sstable.NewWriter(db.opts.Format, nullSink{}, db.opts.BlockSize, db.opts.BitsPerKey,
		sstable.Options{
			Costs: db.opts.Costs, Charge: db.charge,
			SkipData:    true,
			SkipIndex:   !needIndex,
			SkipFilter:  !needFilter,
			DeferFooter: true,
		})
	it := mt.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		bw.Add(it.Key(), it.Value())
	}
	res, err := bw.Finish()
	if err != nil {
		return err
	}
	if needIndex {
		m.Index, m.IndexLen = res.Index, res.IndexLen
	}
	if needFilter {
		m.Filter, m.FilterLen = res.Filter, res.FilterLen
	}
	if m.Size+int64(m.IndexLen)+int64(m.FilterLen) > m.Extent {
		return fmt.Errorf("engine: offloaded table footer overflows extent (%d+%d+%d > %d)",
			m.Size, m.IndexLen, m.FilterLen, m.Extent)
	}
	if needIndex {
		if err := db.writeFooterSection(w, m.Data.Add(int(m.Size)), m.Index.Raw()); err != nil {
			return err
		}
	}
	if needFilter {
		return db.writeFooterSection(w, m.Data.Add(int(m.Size)+m.IndexLen), m.Filter)
	}
	return nil
}

// writeFooterSection lands one footer section with a blocking one-sided
// write through the worker's growable scratch buffer.
func (db *DB) writeFooterSection(w *bgWorker, dest rdma.RemoteAddr, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	mr := w.scratch
	if mr == nil || mr.Size() < len(b) {
		size := 256 << 10
		for size < len(b) {
			size *= 2
		}
		mr = db.cn.Register(size)
		w.scratch = mr
	}
	copy(mr.Bytes(0, len(b)), b)
	return w.qp.WriteSync(mr, 0, dest, len(b))
}

// nullSink backs geometry-only writer passes: with SkipData and
// DeferFooter set, nothing is ever written to it.
type nullSink struct{}

func (nullSink) Write(p []byte) {}
func (nullSink) Finish() error  { return nil }

// discardFlushTable returns a freshly built, never-installed flush
// table's extent. Compute-built extents free locally; a memory-node-built
// extent lives in the self-controlled area, whose allocator metadata only
// the memory node holds — freeing is an RPC. Best effort: on failure the
// extent leaks until the service restarts, like a dropped GC batch.
func (db *DB) discardFlushTable(w *bgWorker, m *sstable.Meta) {
	if m.CreatorNode == db.mn.ID && m.Data.RKey != fsRKeySentinel {
		if !db.freeRemote(w.client(), [][2]int64{{int64(m.Data.Off), m.Extent}}) {
			db.stats.GCDropped.Add(1)
		}
		return
	}
	db.freeTableLocal(m)
}
