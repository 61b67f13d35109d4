package memnode

import (
	"encoding/binary"
	"fmt"
	"math"

	"dlsm/internal/keys"
	"dlsm/internal/remote"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/wal"
)

// FlushReplay names a MemTable's entries where they already are — in the
// write-ahead-log ring in this node's own DRAM — plus the one thing the
// ring lacks and the compute node's skiplist already paid for: the order.
type FlushReplay struct {
	LogKey uint64 // memnode log-slot key (engine.Binding.SlotKey)
	Epoch  uint64 // current log epoch; stale-epoch records fail to parse
	SeqLo  uint64 // the MemTable's sequence range, inclusive: ring entries
	SeqHi  uint64 // outside it belong to a neighbour and are skipped
	Spans  []wal.Span
	// Order is one u32 per entry, little-endian: the entry's sequence number
	// minus SeqLo, in ascending internal-key order. It must be a permutation
	// of exactly the in-range entries the spans hold.
	Order []byte
}

// FlushBuildArgs is the large RPC argument of a near-data flush: build one
// SSTable in the self-controlled area from the log entries Replay names.
// BuildIndex/BuildFilter select which footer sections this node constructs
// (the -fig offload ablation; a filter needs the index under it); they are
// placed in the extent right after the data, and any section left to the
// compute node is covered by FooterReserve.
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
	Replay        FlushReplay
}

// replaySeqSlack bounds how many sequence numbers of a replayed range may
// map to no entry (switch fences, writes the log refused), beyond one hole
// per entry: the per-sequence table replay allocates stays proportional to
// the entries actually named.
const replaySeqSlack = 4096

// EncodeFlushBuildArgs serializes args for transport.
func EncodeFlushBuildArgs(a *FlushBuildArgs) []byte {
	r := &a.Replay
	b := make([]byte, 0, flushArgsFixed+12*len(r.Spans)+4+len(r.Order))
	b = binary.LittleEndian.AppendUint64(b, a.JobID)
	b = append(b, byte(a.Format))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.BlockSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.BitsPerKey))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.ExtentCap))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.Capacity))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.FooterReserve))
	b = append(b, boolByte(a.BuildIndex)|boolByte(a.BuildFilter)<<1)
	b = binary.LittleEndian.AppendUint64(b, r.LogKey)
	b = binary.LittleEndian.AppendUint64(b, r.Epoch)
	b = binary.LittleEndian.AppendUint64(b, r.SeqLo)
	b = binary.LittleEndian.AppendUint64(b, r.SeqHi)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Spans)))
	for _, sp := range r.Spans {
		b = binary.LittleEndian.AppendUint64(b, uint64(sp.Off))
		b = binary.LittleEndian.AppendUint32(b, uint32(sp.Size))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Order)/4))
	return append(b, r.Order...)
}

// flushArgsFixed is the encoded length up to and including the span count.
const flushArgsFixed = 8 + 1 + 4 + 4 + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 8 + 4

// DecodeFlushBuildArgs parses EncodeFlushBuildArgs output. Sizes, the span
// list and the entry count against the sequence range are validated here;
// Order aliases b and is checked offset by offset as replay consumes it.
func DecodeFlushBuildArgs(b []byte) (*FlushBuildArgs, error) {
	if len(b) < flushArgsFixed {
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
	layers := b[41]
	a.BuildIndex, a.BuildFilter = layers&1 != 0, layers&2 != 0
	r := &a.Replay
	r.LogKey = binary.LittleEndian.Uint64(b[42:])
	r.Epoch = binary.LittleEndian.Uint64(b[50:])
	r.SeqLo = binary.LittleEndian.Uint64(b[58:])
	r.SeqHi = binary.LittleEndian.Uint64(b[66:])
	spans := int64(binary.LittleEndian.Uint32(b[74:]))
	b = b[flushArgsFixed:]
	switch {
	case a.Capacity <= 0 || a.ExtentCap < 0 || a.FooterReserve < 0:
		return nil, fmt.Errorf("memnode: flush_build sizes out of range")
	case layers&^3 != 0 || a.BuildFilter && !a.BuildIndex:
		// The filter sits behind the index in the extent: without the
		// index its position is unknowable here.
		return nil, fmt.Errorf("memnode: flush_build layers %#x: unknown, or a filter without the index under it", layers)
	case r.SeqHi < r.SeqLo || r.SeqHi-r.SeqLo >= math.MaxUint32:
		return nil, fmt.Errorf("memnode: flush_build sequence range [%d, %d] out of range", r.SeqLo, r.SeqHi)
	case int64(len(b)) < 12*spans+4:
		return nil, fmt.Errorf("memnode: flush_build names %d spans, %d bytes left", spans, len(b))
	}
	r.Spans = make([]wal.Span, spans)
	for i := range r.Spans {
		off := int64(binary.LittleEndian.Uint64(b[12*i:]))
		size := int64(binary.LittleEndian.Uint32(b[12*i+8:]))
		if off < 0 || size <= 0 {
			return nil, fmt.Errorf("memnode: flush_build span %d out of range", i)
		}
		r.Spans[i] = wal.Span{Off: int(off), Size: int(size)}
	}
	b = b[12*spans:]
	count := uint64(binary.LittleEndian.Uint32(b))
	r.Order = b[4:]
	seqs := r.SeqHi - r.SeqLo + 1
	switch {
	case uint64(len(r.Order)) != 4*count:
		return nil, fmt.Errorf("memnode: flush_build orders %d entries in %d bytes", count, len(r.Order))
	case count == 0 || count > seqs || seqs-count > count+replaySeqSlack:
		return nil, fmt.Errorf("memnode: flush_build orders %d entries over %d sequence numbers", count, seqs)
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

// runFlushBuild streams the replayed entries into a fresh self-region
// extent, builds the requested footer sections, and returns the encoded
// table meta (with the built index/filter bytes for the compute-side
// cache).
func (s *Server) runFlushBuild(args *FlushBuildArgs) ([]byte, []*sstable.Meta, error) {
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
	maxSeq, err := s.replay(&args.Replay, w.Add)
	var res sstable.BuildResult
	if err == nil {
		res, err = w.Finish()
	}
	if err != nil {
		s.selfAlloc.Free(off, int(args.Capacity))
		return nil, nil, err
	}
	// Footer placement: the sections built here land right after the data,
	// index then filter.
	actual := int(res.Size)
	if args.BuildIndex {
		sink.Write(res.Index.Raw())
		actual += res.IndexLen
	}
	if args.BuildFilter {
		sink.Write(res.Filter)
		actual += res.FilterLen
	} else {
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

// replayLanes is how many of this node's cores index one flush's spans at
// once: the ring holds a MemTable's records for as long as its flush takes.
const replayLanes = 4

// replay feeds add the entries r names, in r's order, straight out of the
// log ring in this node's own DRAM, and returns their highest sequence
// number. Two linear passes and no sort (DESIGN.md §11): the first walks
// the spans, in lanes, and notes where each in-range sequence number's
// entry sits; the second takes the shipped order through that table. Only
// each internal key is copied, into one scratch buffer (ring entries carry
// no trailer): key and value alias the ring, whose records stay put until
// the flush completes (wal.View). Both passes are charged: the first is
// one sequential read of every span byte (the CRC, with the frame lengths
// read on the way), the second a random access and a decode per entry.
// Whatever way the descriptor disagrees with the ring is an error, not a
// panic and not a short table.
func (s *Server) replay(r *FlushReplay, add func(ikey, value []byte)) (maxSeq uint64, err error) {
	s.logMu.Lock()
	slot, ok := s.logs[r.LogKey]
	mr := s.logMR
	s.logMu.Unlock()
	if !ok {
		return 0, fmt.Errorf("memnode: flush_build replay of unknown log %#x", r.LogKey)
	}
	_, ringBase, ringSize, err := wal.Geometry(slot.Size)
	if err != nil {
		return 0, err
	}
	if ringSize >= math.MaxUint32 {
		return 0, fmt.Errorf("memnode: flush_build replay of a %d-byte ring", ringSize)
	}
	ring := mr.Bytes(slot.Addr.Off+ringBase, ringSize)

	// at[seq-SeqLo] is 1 + the ring offset of that sequence number's entry
	// frame; 0 while the spans have not shown one, and again once consumed.
	at := make([]uint32, r.SeqHi-r.SeqLo+1)
	var lanes [replayLanes]struct {
		found int
		err   error
	}
	index := func(j int) {
		l, bytes := &lanes[j], 0
		for i := j; i < len(r.Spans) && l.err == nil; i += replayLanes {
			sp := r.Spans[i]
			if sp.Off < 0 || sp.Size <= 0 || sp.Off > ringSize-sp.Size {
				l.err = fmt.Errorf("memnode: replay span %d outside ring", i)
				break
			}
			if !wal.WalkSpan(ring[sp.Off:sp.Off+sp.Size], r.Epoch, func(e wal.Entry, off int) {
				if e.Seq >= r.SeqLo && e.Seq <= r.SeqHi {
					at[e.Seq-r.SeqLo] = uint32(sp.Off+off) + 1
					l.found++
				}
			}) {
				l.err = fmt.Errorf("memnode: replay span %d failed to parse", i)
			}
			bytes += sp.Size
		}
		s.charge(sim.Bytes(bytes, s.cfg.Costs.MemcpyByte))
	}
	wg := sim.NewWaitGroup(s.env)
	for j := 1; j < min(replayLanes, len(r.Spans)); j++ {
		wg.Add(1)
		s.env.Go(func() { defer wg.Done(); index(j) })
	}
	index(0)
	wg.Wait()
	count, found := len(r.Order)/4, 0
	for _, l := range lanes {
		if l.err != nil {
			return 0, l.err
		}
		found += l.found
	}
	if found != count {
		return 0, fmt.Errorf("memnode: replay orders %d entries, the spans hold %d in range", count, found)
	}

	var ikey []byte
	keyBytes := 0
	for i := 0; i < count; i++ {
		off := uint64(binary.LittleEndian.Uint32(r.Order[4*i:]))
		if off >= uint64(len(at)) || at[off] == 0 {
			return 0, fmt.Errorf("memnode: replay order %d names sequence %d+%d: out of range, repeated or not in the spans", i, r.SeqLo, off)
		}
		kind, key, value, ok := wal.EntryAt(ring, int(at[off]-1))
		if !ok {
			return 0, fmt.Errorf("memnode: replay entry for sequence %d+%d changed under the flush", r.SeqLo, off)
		}
		at[off] = 0
		ikey = keys.Append(ikey[:0], key, keys.Seq(r.SeqLo+off), keys.Kind(kind))
		add(ikey, value)
		keyBytes += len(ikey)
		maxSeq = max(maxSeq, r.SeqLo+off)
	}
	s.charge(sim.Bytes(keyBytes+len(r.Order), s.cfg.Costs.MemcpyByte) + sim.Duration(count)*s.cfg.Costs.EntryParse)
	return maxSeq, nil
}
