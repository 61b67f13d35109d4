package engine

import (
	"encoding/binary"
	"fmt"

	"dlsm/internal/memnode"
	"dlsm/internal/memtable"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

// flushRemote offloads one MemTable flush to the memory node: a
// flush_build RPC has it serialize the table into its self-controlled
// area and build the footer sections selected by OffloadIndexBuild /
// OffloadFilter. With the WAL on, only a replay descriptor travels — the
// entry bytes are already resident in the memory node's ring — otherwise
// the memtable contents ship inline. Any footer section the memory node
// did not build is constructed here and one-sided-written into the
// extent's reserved footer space, so the finished table is byte-identical
// to a compute-built one.
func (db *DB) flushRemote(w *bgWorker, mt *memtable.MemTable, capacity int64) (*sstable.Meta, error) {
	lo, hi := mt.SeqRange()
	args := &memnode.FlushBuildArgs{
		Format:     db.opts.Format,
		BlockSize:  db.opts.BlockSize,
		BitsPerKey: db.opts.BitsPerKey,
		ExtentCap:  db.extentClass(),
		Capacity:   capacity,
		// The flush capacity formula is data estimate + footer headroom;
		// the headroom part is exactly what compute-built sections need.
		FooterReserve: capacity - mt.ApproximateSize(),
		BuildIndex:    db.opts.OffloadIndexBuild,
		BuildFilter:   db.opts.OffloadFilter,
	}
	// A stable nonzero job id, so the memory node dedupes retried
	// deliveries (same contract as "compact"). instanceID disambiguates
	// shards of one compute node sharing a memory node; the memtable id
	// and range base make it unique among this DB's flushes.
	args.JobID = sim.Mix64(uint64(db.env.Seed()), uint64(db.cn.ID),
		db.instanceID, mt.ID(), uint64(lo)) | 1

	if db.walEnabled() && hi > lo {
		// Zero-copy mode: the WAL ring already holds every durable entry on
		// the memory node. SeqRange is half-open [lo, hi) — the replay
		// protocol is inclusive, so the boundary seq hi (owned by the next
		// memtable, possibly already in the ring) must stay out. A failed
		// view (ring stalled, log broken) is not fatal — the contents can
		// still ship inline.
		if v, err := db.wal.ReplayView(uint64(lo), uint64(hi)-1); err == nil && len(v.Records) > 0 {
			args.Replay = &memnode.FlushReplay{
				LogKey:  db.bind.SlotKey(),
				Epoch:   v.Epoch,
				SeqLo:   uint64(lo),
				SeqHi:   uint64(hi) - 1,
				Records: v.Records,
			}
		}
	}
	if args.Replay == nil {
		args.Count = mt.Len()
		args.Entries = db.encodeMemtableEntries(mt)
	}

	// One meta comes back: its index and filter fit the footer headroom.
	outputs, err := db.remoteJob(w, "flush_build", args.JobID, memnode.EncodeFlushBuildArgs(args),
		int(args.FooterReserve)+metaSlack, func(outputs []*sstable.Meta) error {
			if len(outputs) != 1 {
				return fmt.Errorf("engine: flush_build returned %d tables", len(outputs))
			}
			if m := outputs[0]; m.Count != mt.Len() {
				// Every logged entry is posted to the ring before its claim
				// clears and the quiesce barrier above waited those claims
				// out, so the view is complete by construction. Entry
				// sequences are unique and range-filtered: the built count
				// can only fall short, and equality certifies that the
				// memory node parsed every record it was shown. On a
				// shortfall the remote table is dropped and the caller
				// falls back to the compute-local build.
				return fmt.Errorf("engine: offloaded flush built %d of %d entries", m.Count, mt.Len())
			}
			return db.completeFooter(w, mt, outputs[0], args)
		})
	if err != nil {
		return nil, err
	}
	db.stats.OffloadedFlushes.Add(1)
	if args.Replay != nil {
		db.stats.OffloadReplays.Add(1)
	} else {
		db.stats.OffloadInline.Add(1)
	}
	return outputs[0], nil
}

// encodeMemtableEntries frames mt's entries for contents-mode shipping
// (`u32 klen | u32 vlen | ikey | value`, ascending internal-key order).
// The gather copy out of the memtable arena is compute CPU.
func (db *DB) encodeMemtableEntries(mt *memtable.MemTable) []byte {
	buf := make([]byte, 0, int(mt.ApproximateSize())+8*mt.Len())
	it := mt.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		k, v := it.Key(), it.Value()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, k...)
		buf = append(buf, v...)
	}
	db.charge(sim.Bytes(len(buf), db.opts.Costs.MemcpyByte))
	return buf
}

// completeFooter constructs and places whatever footer sections the
// memory node skipped (per-layer ablation). A geometry-only writer pass
// over the memtable (SkipData) rebuilds exactly the missing sections with
// the same block boundaries the remote data pass used, then one-sided
// writes land them in the extent's reserved footer space. Also places a
// memory-node-built filter that could not land remotely: with the index
// built here, the filter's final position was unknowable on the memory
// node, so its bytes traveled back in the reply meta.
func (db *DB) completeFooter(w *bgWorker, mt *memtable.MemTable, m *sstable.Meta, args *memnode.FlushBuildArgs) error {
	if args.BuildIndex && args.BuildFilter {
		return nil // full footer already placed on the memory node
	}
	needIndex := !args.BuildIndex
	needFilter := !args.BuildFilter && db.opts.BitsPerKey > 0
	if needIndex || needFilter {
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
	}
	if m.Size+int64(m.IndexLen)+int64(m.FilterLen) > m.Extent {
		return fmt.Errorf("engine: offloaded table footer overflows extent (%d+%d+%d > %d)",
			m.Size, m.IndexLen, m.FilterLen, m.Extent)
	}
	off := int(m.Size)
	if needIndex {
		if err := db.writeFooterSection(w, m.Data.Add(off), m.Index.Raw()); err != nil {
			return err
		}
	}
	off += m.IndexLen
	if m.FilterLen > 0 {
		if err := db.writeFooterSection(w, m.Data.Add(off), m.Filter); err != nil {
			return err
		}
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
		frees := [][2]int64{{int64(m.Data.Off), m.Extent}}
		if _, err := w.client().CallPolicy("free", memnode.EncodeFrees(frees), db.opts.FreeRPC); err != nil {
			db.stats.GCDropped.Add(1)
		}
		return
	}
	db.freeTableLocal(m)
}
