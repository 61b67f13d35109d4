package memnode

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dlsm/internal/keys"
	"dlsm/internal/remote"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/wal"
)

// FlushReplay asks the memory node to rebuild the memtable's entries from
// the write-ahead-log ring resident in its own DRAM (zero-copy flush): the
// compute node ships only record locations, never the data — the bytes
// already crossed the network once, as WAL appends.
type FlushReplay struct {
	LogKey  uint64 // memnode log-slot key (engine.Binding.SlotKey)
	Epoch   uint64 // current log epoch; stale-epoch records fail to parse
	SeqLo   uint64 // memtable sequence range: entries outside are skipped
	SeqHi   uint64
	Records []wal.RecordLoc // ring-relative; may span-overlap neighbors' seqs
}

// FlushBuildArgs is the large RPC argument for flush offloading: build one
// SSTable in the self-controlled area from an immutable memtable's
// entries, delivered either inline (Entries) or as a WAL replay
// descriptor (Replay). BuildIndex/BuildFilter select which footer
// sections this node constructs (per-layer ablation); sections it builds
// are placed in the extent as a contiguous footer prefix after the data,
// and any section left to the compute node is covered by FooterReserve.
type FlushBuildArgs struct {
	JobID         uint64 // dedupe/cancel id (shared with "compact"); 0 disables
	Format        sstable.Format
	BlockSize     int
	BitsPerKey    int
	ExtentCap     int64 // extent-class target (engine extent sizing)
	Capacity      int64 // initial allocation request
	FooterReserve int64 // slack kept for compute-built footer sections
	BuildIndex    bool
	BuildFilter   bool

	// Contents mode: Count framed entries in ascending internal-key order,
	// each `u32 klen | u32 vlen | ikey | value`.
	Count   int
	Entries []byte

	// Replay mode, used instead of Entries when non-nil.
	Replay *FlushReplay
}

const flushModeReplay = 1

// EncodeFlushBuildArgs serializes args for transport.
func EncodeFlushBuildArgs(a *FlushBuildArgs) []byte {
	b := binary.LittleEndian.AppendUint64(nil, a.JobID)
	b = append(b, byte(a.Format))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.BlockSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.BitsPerKey))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.ExtentCap))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.Capacity))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.FooterReserve))
	flags := byte(0)
	if a.BuildIndex {
		flags |= 1
	}
	if a.BuildFilter {
		flags |= 2
	}
	b = append(b, flags)
	if a.Replay != nil {
		b = append(b, flushModeReplay)
		b = binary.LittleEndian.AppendUint64(b, a.Replay.LogKey)
		b = binary.LittleEndian.AppendUint64(b, a.Replay.Epoch)
		b = binary.LittleEndian.AppendUint64(b, a.Replay.SeqLo)
		b = binary.LittleEndian.AppendUint64(b, a.Replay.SeqHi)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Replay.Records)))
		for _, r := range a.Replay.Records {
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Off))
			b = binary.LittleEndian.AppendUint32(b, uint32(r.Size))
		}
		return b
	}
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(a.Count))
	return append(b, a.Entries...)
}

// DecodeFlushBuildArgs parses EncodeFlushBuildArgs output. The entry
// frames of contents mode are validated here (count, lengths, no trailing
// bytes) so the handler can alias them without further checks.
func DecodeFlushBuildArgs(b []byte) (*FlushBuildArgs, error) {
	const fixed = 8 + 1 + 4 + 4 + 8 + 8 + 8 + 1 + 1
	if len(b) < fixed {
		return nil, fmt.Errorf("memnode: short flush_build args")
	}
	a := &FlushBuildArgs{
		JobID:         binary.LittleEndian.Uint64(b),
		Format:        sstable.Format(b[8]),
		BlockSize:     int(binary.LittleEndian.Uint32(b[9:])),
		BitsPerKey:    int(binary.LittleEndian.Uint32(b[13:])),
		ExtentCap:     int64(binary.LittleEndian.Uint64(b[17:])),
		Capacity:      int64(binary.LittleEndian.Uint64(b[25:])),
		FooterReserve: int64(binary.LittleEndian.Uint64(b[33:])),
	}
	flags, mode := b[41], b[42]
	a.BuildIndex = flags&1 != 0
	a.BuildFilter = flags&2 != 0
	b = b[fixed:]
	if a.Capacity <= 0 || a.ExtentCap < 0 || a.FooterReserve < 0 {
		return nil, fmt.Errorf("memnode: flush_build sizes out of range")
	}
	if mode == flushModeReplay {
		if len(b) < 8+8+8+8+4 {
			return nil, fmt.Errorf("memnode: short flush_build replay descriptor")
		}
		r := &FlushReplay{
			LogKey: binary.LittleEndian.Uint64(b),
			Epoch:  binary.LittleEndian.Uint64(b[8:]),
			SeqLo:  binary.LittleEndian.Uint64(b[16:]),
			SeqHi:  binary.LittleEndian.Uint64(b[24:]),
		}
		n := int(binary.LittleEndian.Uint32(b[32:]))
		b = b[36:]
		if n < 0 || len(b) != 12*n {
			return nil, fmt.Errorf("memnode: flush_build replay wants %d records, %d bytes left", n, len(b))
		}
		for i := 0; i < n; i++ {
			off := int64(binary.LittleEndian.Uint64(b[12*i:]))
			size := int64(binary.LittleEndian.Uint32(b[12*i+8:]))
			if off < 0 || size <= 0 {
				return nil, fmt.Errorf("memnode: flush_build replay record %d out of range", i)
			}
			r.Records = append(r.Records, wal.RecordLoc{Off: int(off), Size: int(size)})
		}
		a.Replay = r
		return a, nil
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("memnode: short flush_build entry count")
	}
	a.Count = int(binary.LittleEndian.Uint32(b))
	a.Entries = b[4:]
	// Validate the frames end-to-end up front.
	rest := a.Entries
	for i := 0; i < a.Count; i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("memnode: truncated flush_build entry %d", i)
		}
		klen := int64(binary.LittleEndian.Uint32(rest))
		vlen := int64(binary.LittleEndian.Uint32(rest[4:]))
		if klen < int64(keys.TrailerLen) || klen+vlen > int64(len(rest)-8) {
			return nil, fmt.Errorf("memnode: flush_build entry %d out of range", i)
		}
		rest = rest[8+klen+vlen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("memnode: %d trailing bytes after flush_build entries", len(rest))
	}
	return a, nil
}

// handleFlushBuild executes one flush-build job under the shared
// job-dedupe table (cancellation rides "compact_cancel").
func (s *Server) handleFlushBuild(from int, argBytes []byte) ([]byte, error) {
	args, err := DecodeFlushBuildArgs(argBytes)
	if err != nil {
		return nil, err
	}
	return s.withJobDedupe(args.JobID, func() ([]byte, []*sstable.Meta, error) {
		return s.runFlushBuild(args)
	})
}

// flushEntry is one (internal key, value) pair ready for the table writer.
type flushEntry struct {
	ikey  []byte
	value []byte
}

// runFlushBuild materializes the entries (inline or WAL replay),
// serializes them into a fresh self-region extent, builds the requested
// footer sections, and returns the encoded table meta (with the built
// index/filter bytes for the compute-side cache).
func (s *Server) runFlushBuild(args *FlushBuildArgs) ([]byte, []*sstable.Meta, error) {
	var entries []flushEntry
	var err error
	if args.Replay != nil {
		entries, err = s.replayEntries(args.Replay)
	} else {
		entries, err = s.inlineEntries(args)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("memnode: flush_build with no entries")
	}

	off, err := s.selfAlloc.Alloc(int(args.Capacity))
	if err != nil {
		return nil, nil, fmt.Errorf("memnode: flush_build allocation: %w", err)
	}
	abs := int(s.selfBase + off)
	sink := sstable.NewLocalSink(s.dataMR, abs)
	w := sstable.NewWriter(args.Format, sink, args.BlockSize, args.BitsPerKey, sstable.Options{
		Costs: s.cfg.Costs, Charge: s.charge,
		SkipIndex:   !args.BuildIndex,
		SkipFilter:  !args.BuildFilter,
		DeferFooter: true,
	})
	var maxSeq uint64
	for _, e := range entries {
		w.Add(e.ikey, e.value)
		if _, seq, _, perr := keys.Parse(e.ikey); perr == nil && uint64(seq) > maxSeq {
			maxSeq = uint64(seq)
		}
	}
	res, err := w.Finish()
	if err != nil {
		s.selfAlloc.Free(off, int(args.Capacity))
		return nil, nil, err
	}
	// Footer placement: sections built here land right after the data, in
	// index-then-filter order, but only as a contiguous prefix — with the
	// index left to the compute node, the filter's final position
	// (Size+IndexLen) is unknowable here, so its bytes travel back in the
	// reply meta and the compute node places them.
	placed := 0
	if args.BuildIndex {
		sink.Write(res.Index.Raw())
		placed += res.IndexLen
		if args.BuildFilter {
			sink.Write(res.Filter)
			placed += res.FilterLen
		}
	}
	actual := int(res.Size) + placed
	if !args.BuildIndex || !args.BuildFilter {
		actual += int(args.FooterReserve) // room for compute-built sections
	}
	if class := int(remote.ClassSize(int(args.ExtentCap))); args.ExtentCap > 0 && actual < class {
		actual = class
	}
	extent := s.selfAlloc.Shrink(off, actual)
	m := &sstable.Meta{
		// The ID is assigned by the compute node on receipt.
		Size: res.Size, Extent: extent,
		IndexLen: res.IndexLen, FilterLen: res.FilterLen, Count: res.Count,
		Smallest: res.Smallest, Largest: res.Largest, MaxSeq: maxSeq,
		Data:        s.dataMR.Addr(abs),
		CreatorNode: s.node.ID,
		Format:      args.Format, BlockSize: args.BlockSize,
		Index: res.Index, Filter: res.Filter,
	}
	outputs := []*sstable.Meta{m}
	return EncodeMetas(outputs), outputs, nil
}

// inlineEntries decodes contents-mode frames (already validated by
// DecodeFlushBuildArgs) into writer-ready entries, charging the copy and
// parse work to this node.
func (s *Server) inlineEntries(args *FlushBuildArgs) ([]flushEntry, error) {
	entries := make([]flushEntry, 0, args.Count)
	rest := args.Entries
	for i := 0; i < args.Count; i++ {
		klen := int(binary.LittleEndian.Uint32(rest))
		vlen := int(binary.LittleEndian.Uint32(rest[4:]))
		rest = rest[8:]
		entries = append(entries, flushEntry{ikey: rest[:klen], value: rest[klen : klen+vlen]})
		rest = rest[klen+vlen:]
	}
	s.charge(sim.Bytes(len(args.Entries), s.cfg.Costs.MemcpyByte) +
		sim.Duration(args.Count)*s.cfg.Costs.EntryParse)
	return entries, nil
}

// replayEntries rebuilds the memtable's entries from the WAL ring in this
// node's own DRAM: parse the named records, keep entries inside the
// memtable's sequence range (records may span a memtable boundary), and
// restore ascending internal-key order — the insertion the memtable's
// skiplist did on the compute node, now done here.
func (s *Server) replayEntries(r *FlushReplay) ([]flushEntry, error) {
	s.logMu.Lock()
	slot, ok := s.logs[r.LogKey]
	mr := s.logMR
	s.logMu.Unlock()
	if !ok || mr == nil {
		return nil, fmt.Errorf("memnode: flush_build replay of unknown log %#x", r.LogKey)
	}
	_, ringBase, ringSize, err := wal.Geometry(slot.Size)
	if err != nil {
		return nil, err
	}
	var entries []flushEntry
	ringBytes, parsed := 0, 0
	for i, loc := range r.Records {
		if loc.Size < 0 || loc.Off < 0 || loc.Off+loc.Size > ringSize {
			return nil, fmt.Errorf("memnode: replay record %d outside ring", i)
		}
		rec, ok := wal.ParseReplayRecord(mr.Bytes(int(slot.Addr.Off)+ringBase+loc.Off, loc.Size), r.Epoch)
		if !ok {
			return nil, fmt.Errorf("memnode: replay record %d failed to parse", i)
		}
		ringBytes += loc.Size
		for _, e := range rec.Entries {
			parsed++
			if e.Seq < r.SeqLo || e.Seq > r.SeqHi {
				continue
			}
			entries = append(entries, flushEntry{
				ikey:  keys.Append(nil, e.Key, keys.Seq(e.Seq), keys.Kind(e.Kind)),
				value: e.Value,
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		return keys.Compare(entries[i].ikey, entries[j].ikey) < 0
	})
	s.charge(sim.Bytes(ringBytes, s.cfg.Costs.MemcpyByte) +
		sim.Duration(parsed)*s.cfg.Costs.EntryParse)
	return entries, nil
}
