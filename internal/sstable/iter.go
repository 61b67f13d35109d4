package sstable

import (
	"sort"
	"time"

	"dlsm/internal/keys"
	"dlsm/internal/readahead"
)

// Iterator is the common scan interface over MemTables, SSTables and merged
// views. Key returns an internal key; Value is valid until the next
// positioning call (fetch buffers are reused). Close releases prefetch
// resources (pipelined fetch buffers, per-iterator QPs) and is required
// even mid-scan; it is idempotent and a no-op for purely in-memory or
// synchronous iterators.
type Iterator interface {
	First()
	SeekGE(ikey []byte)
	Valid() bool
	Next()
	Key() []byte
	Value() []byte
	Error() error
	Close()
}

// IterOpts configures a table iterator.
type IterOpts struct {
	// Prefetch is the sequential read-ahead in bytes (§VI: dLSM prefetches
	// multi-MB chunks so range scans do one large RDMA read instead of
	// many small ones); 0 fetches one entry/block at a time.
	Prefetch int
	// Readahead, when non-nil with Depth > 1, pipelines chunk fetches on a
	// scan queue pair so the network overlaps iteration CPU; chunks are
	// planned on entry/block boundaries from the table index and sized by
	// what the scan has read so far (readahead.Scheduler), up to Prefetch.
	// The config is shared read-only by every table of a scan: Base, Size
	// and MaxWindow are filled in per table. Nil (or Depth <= 1) is the
	// synchronous path through the reader's Fetcher.
	Readahead *readahead.Config
}

// NewIterator returns a synchronous scan iterator for the table reading
// ahead by prefetch bytes.
func (r *Reader) NewIterator(prefetch int) Iterator {
	return r.NewIteratorOpts(IterOpts{Prefetch: prefetch})
}

// NewIteratorOpts is NewIterator with an explicit prefetch policy.
func (r *Reader) NewIteratorOpts(o IterOpts) Iterator {
	w := window{r: r, prefetch: o.Prefetch}
	if o.Readahead != nil && o.Readahead.Depth > 1 {
		w.raCfg = o.Readahead
	}
	if r.meta.Format == ByteAddr {
		return &byteAddrIter{window: w, pos: -1}
	}
	return &blockIter{window: w, bi: -1}
}

// window is the resident run of table bytes both iterators slice entries
// out of. A miss refills it synchronously through the reader's Fetcher,
// or through a pipelined readahead.Scheduler built on the first miss — so
// a merge child that never surfaces a value never costs a queue pair.
type window struct {
	r        *Reader
	prefetch int
	raCfg    *readahead.Config    // nil = synchronous fetches
	ra       *readahead.Scheduler // built lazily from raCfg
	chunk    []byte
	lo, hi   int
	mark     int // the iterator has read the chunk's bytes below this offset
}

// bytes returns table bytes [lo, hi), reading ahead by the prefetch
// window on a miss.
func (w *window) bytes(lo, hi int) ([]byte, error) {
	if lo < w.lo || hi > w.hi {
		if err := w.refill(lo, hi); err != nil {
			return nil, err
		}
	}
	if hi > w.mark {
		w.mark = hi
	}
	return w.chunk[lo-w.lo : hi-w.lo], nil
}

func (w *window) refill(lo, hi int) error {
	if w.raCfg != nil {
		if w.ra == nil {
			cfg := *w.raCfg
			cfg.Base, cfg.Size = w.r.meta.Data, int(w.r.meta.Size)
			if cfg.MaxWindow <= 0 {
				cfg.MaxWindow = w.prefetch
			}
			w.ra = readahead.New(cfg, w.r.chunkEnd)
		}
		w.ra.Consumed(w.mark)
		b, clo, err := w.ra.ReadAt(lo, hi)
		if err != nil {
			return err
		}
		w.chunk, w.lo, w.hi, w.mark = b, clo, clo+len(b), lo
		return nil
	}
	n := hi - lo
	if n < w.prefetch {
		n = w.prefetch
	}
	if max := int(w.r.meta.Size) - lo; n > max {
		n = max
	}
	b, err := w.r.fetch.ReadAt(lo, n)
	if err != nil {
		return err
	}
	w.chunk, w.lo, w.hi = b, lo, lo+n
	return nil
}

// Close releases the pipelined prefetcher, if one was ever built, and
// makes sure none is built afterwards.
func (w *window) Close() {
	if w.ra != nil {
		w.ra.Consumed(w.mark)
		w.ra.Close()
	}
	w.ra, w.raCfg = nil, nil
}

// chunkEnd plans readahead chunk boundaries: the end of the smallest run
// of whole entries (ByteAddr) or blocks (Block) that starts at off and
// spans at least want bytes, capped at the data region. Aligning chunks
// this way means no entry or block ever straddles two chunks — an entry
// larger than the window simply becomes its own chunk.
func (r *Reader) chunkEnd(off, want int) int {
	size := int(r.meta.Size)
	target := off + want
	if target >= size {
		return size
	}
	ix := &r.meta.Index
	n := ix.NumRecords()
	i := sort.Search(n, func(i int) bool {
		return r.recordEnd(i) >= target
	})
	if i >= n {
		return size
	}
	return r.recordEnd(i)
}

// recordEnd is the data-region end offset of index record i: entry end
// (off+klen+vlen) for ByteAddr, block end (off+blen) for Block.
func (r *Reader) recordEnd(i int) int {
	_, off, a, b := r.meta.Index.Record(i)
	if r.meta.Format == ByteAddr {
		return int(off) + int(a) + int(b)
	}
	return int(off) + int(a)
}

// byteAddrIter walks the per-entry index; keys come from the local index
// for free, values are sliced out of the prefetched chunk with no block
// unwrapping.
type byteAddrIter struct {
	window
	pos int
	err error
}

func (it *byteAddrIter) First() { it.setPos(0) }

func (it *byteAddrIter) SeekGE(ikey []byte) {
	it.setPos(it.r.meta.Index.SeekGE(ikey, keys.Compare))
}

func (it *byteAddrIter) Valid() bool {
	return it.err == nil && it.pos >= 0 && it.pos < it.r.meta.Index.NumRecords()
}

func (it *byteAddrIter) Next() { it.setPos(it.pos + 1) }

func (it *byteAddrIter) setPos(pos int) {
	it.pos = pos
	if !it.Valid() {
		return
	}
	it.r.charge(it.r.opts.Costs.EntryParse)
}

func (it *byteAddrIter) Key() []byte {
	k, _, _, _ := it.r.meta.Index.Record(it.pos)
	return k
}

func (it *byteAddrIter) Value() []byte {
	_, off, klen, vlen := it.r.meta.Index.Record(it.pos)
	lo := int(off) + int(klen)
	v, err := it.bytes(lo, lo+int(vlen))
	if err != nil {
		it.err = err
	}
	return v
}

func (it *byteAddrIter) Error() error { return it.err }

// blockIter walks block-format tables: every block crossing pays a fetch
// (or a slice of the prefetched run) plus unwrap CPU.
type blockIter struct {
	window
	bi  int // current block index, -1 unpositioned
	ei  int // entry index within block
	blk *block
	err error
}

func (it *blockIter) First() {
	if it.r.meta.Index.NumRecords() == 0 {
		it.bi = 0
		return
	}
	if it.loadBlock(0) {
		it.ei = 0
	}
}

func (it *blockIter) SeekGE(ikey []byte) {
	bi := it.r.meta.Index.SeekGE(ikey, keys.Compare)
	if bi >= it.r.meta.Index.NumRecords() {
		it.bi = bi
		return
	}
	if !it.loadBlock(bi) {
		return
	}
	it.ei = it.blk.seekGE(ikey)
	if it.ei >= it.blk.count {
		// Target sorts after this block's last key only when the index
		// pointed us at the final block; advance (possibly to invalid).
		it.advanceBlock()
	}
}

func (it *blockIter) Valid() bool {
	return it.err == nil && it.blk != nil && it.bi < it.r.meta.Index.NumRecords() && it.ei < it.blk.count
}

func (it *blockIter) Next() {
	it.ei++
	it.r.charge(it.r.opts.Costs.EntryParse)
	if it.blk != nil && it.ei >= it.blk.count {
		it.advanceBlock()
	}
}

func (it *blockIter) advanceBlock() {
	if it.loadBlock(it.bi + 1) {
		it.ei = 0
	}
}

// loadBlock makes block bi current, fetching (with read-ahead) and parsing
// it. Returns false when bi is out of range or on error.
func (it *blockIter) loadBlock(bi int) bool {
	it.bi = bi
	it.blk = nil
	ix := &it.r.meta.Index
	if bi < 0 || bi >= ix.NumRecords() {
		return false
	}
	_, off, blen, _ := ix.Record(bi)
	raw, err := it.bytes(int(off), int(off)+int(blen))
	if err != nil {
		it.err = err
		return false
	}
	blk, err := parseBlock(raw)
	if err != nil {
		it.err = err
		return false
	}
	c := it.r.opts.Costs
	it.r.charge(c.BlockTouch + time.Duration(float64(blen)*c.BlockByte))
	it.blk = blk
	return true
}

func (it *blockIter) Key() []byte {
	k, _ := it.blk.entry(it.ei)
	return k
}

func (it *blockIter) Value() []byte {
	_, v := it.blk.entry(it.ei)
	return v
}

func (it *blockIter) Error() error { return it.err }
