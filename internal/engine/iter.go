package engine

import (
	"bytes"

	"dlsm/internal/iterx"
	"dlsm/internal/keys"
	"dlsm/internal/memtable"
	"dlsm/internal/rdma"
	"dlsm/internal/readahead"
	"dlsm/internal/sstable"
	"dlsm/internal/version"
)

// Iterator is a snapshot-consistent scan over the whole DB in user-key
// order, exposing the newest visible version of each live key. For range
// scans over remote tables, sub-iterators prefetch multi-MB chunks (§VI).
type Iterator struct {
	s      *Session
	snap   keys.Seq
	merged sstable.Iterator

	mem  *memtable.MemTable
	imms []*memtable.MemTable
	v    *version.Version

	ukey  []byte
	value []byte
	valid bool
	err   error

	minSeq  keys.Seq // skip keys whose newest visible version is <= minSeq
	incTomb bool     // surface tombstones instead of hiding them
	isTomb  bool     // current position is a tombstone (incTomb only)
}

// NewIterator opens a scan at the current sequence. Close it to release
// the pinned snapshot.
func (s *Session) NewIterator() *Iterator {
	return s.NewIteratorOpts(ReadOptions{})
}

// NewIteratorOpts is NewIterator with an explicit read policy:
// PrefetchBytes/PrefetchDepth tune the readahead pipeline and Snapshot
// pins an explicit sequence. FillCache is ignored — scans bypass the
// hot-KV cache entirely (prefetched chunks are the wrong granularity to
// cache).
func (s *Session) NewIteratorOpts(ro ReadOptions) *Iterator {
	db := s.db
	if db.sec != nil && ro.MaxStaleness > 0 {
		// Best-effort: an iterator has no error channel, so a failed
		// refresh scans the stale (still self-consistent) view.
		_ = db.sec.refreshIfOlder(db, ro.MaxStaleness)
	}
	snap := db.CurrentSeq()
	if ro.Snapshot > 0 {
		snap = ro.Snapshot
	}
	db.registerSnapshot(snap)

	mem := db.cur.Load()
	mem.Ref()
	imms := db.pinImms()
	v := db.vs.Current()

	opts := sstable.Options{Costs: db.opts.Costs, Charge: db.charge}
	prefetch := db.opts.PrefetchBytes
	if ro.PrefetchBytes > 0 {
		prefetch = ro.PrefetchBytes
	}
	depth := db.opts.PrefetchDepth
	if ro.PrefetchDepth > 0 {
		depth = ro.PrefetchDepth
	}
	// One pipelined-prefetch config serves every table of the scan. Only
	// the native one-sided transport has a queue pair to pipeline on; depth
	// 1 is the synchronous ablation.
	var ra *readahead.Config
	if depth > 1 && db.opts.Transport == TransportNative {
		ra = &readahead.Config{Pool: db.scanPool(), Depth: depth, MaxWindow: prefetch}
	}

	var children []sstable.Iterator
	children = append(children, mem.NewIterator())
	for i := len(imms) - 1; i >= 0; i-- {
		children = append(children, imms[i].NewIterator())
	}
	// Per-child readahead: every L0 file and each level's Concat child
	// gets its own pipeline, so children fetch concurrently while the
	// merge consumes them.
	for _, f := range v.Levels[0] {
		children = append(children, s.scanIter(f.Meta, opts, prefetch, ra))
	}
	for level := 1; level < version.NumLevels; level++ {
		files := v.Levels[level]
		if len(files) == 0 {
			continue
		}
		children = append(children, iterx.Concat(keys.Compare, len(files),
			func(i int) ([]byte, []byte) { return files[i].Smallest, files[i].Largest },
			func(i int) sstable.Iterator {
				return s.scanIter(files[i].Meta, opts, prefetch, ra)
			}))
	}

	return &Iterator{
		s: s, snap: snap,
		merged: iterx.Merging(keys.Compare, children...),
		mem:    mem, imms: imms, v: v,
		minSeq: ro.MinSeq, incTomb: ro.IncludeTombstones,
	}
}

// scanIter builds the scan iterator over one table: pipelined through the
// DB's shared scan pool (buffers and queue pairs, taken on the table's
// first fetch) when ra is set, otherwise — depth 1, the FS and tmpfs
// transports — synchronous through the session's QP and a scratch buffer
// of its own. A pipelined reader only ever iterates, so it gets no Fetcher.
func (s *Session) scanIter(meta *sstable.Meta, opts sstable.Options, prefetch int, ra *readahead.Config) sstable.Iterator {
	if ra == nil || meta.Data.RKey == fsRKeySentinel {
		r := sstable.NewReader(meta, s.db.newFetcher(meta, s.qp, newScratchSlot(), s.client), opts)
		return r.NewIterator(prefetch)
	}
	return sstable.NewReader(meta, nil, opts).NewIteratorOpts(sstable.IterOpts{Prefetch: prefetch, Readahead: ra})
}

// newScratchSlot gives each table iterator its own scratch buffer slot;
// chunks from different tables must not clobber each other mid-merge.
func newScratchSlot() **rdma.MemoryRegion {
	var slot *rdma.MemoryRegion
	return &slot
}

// First positions at the smallest live key.
func (it *Iterator) First() {
	it.merged.First()
	it.ukey = it.ukey[:0]
	it.findNext(false)
}

// SeekGE positions at the first live key >= ukey.
func (it *Iterator) SeekGE(ukey []byte) {
	it.merged.SeekGE(keys.AppendLookup(nil, ukey, it.snap))
	it.ukey = it.ukey[:0]
	it.findNext(false)
}

// Next advances to the following live key.
func (it *Iterator) Next() {
	it.merged.Next()
	it.findNext(true)
}

// findNext skips versions invisible at the snapshot, stale versions of a
// key already emitted, and tombstoned keys.
func (it *Iterator) findNext(haveLast bool) {
	it.valid = false
	for it.merged.Valid() {
		ukey, seq, kind, err := keys.Parse(it.merged.Key())
		if err != nil {
			it.err = err
			return
		}
		if seq > it.snap {
			it.merged.Next()
			continue
		}
		if haveLast && bytes.Equal(ukey, it.ukey) {
			it.merged.Next()
			continue
		}
		it.ukey = append(it.ukey[:0], ukey...)
		haveLast = true
		// The merge yields (ukey asc, seq desc), so this is the newest
		// visible version of ukey: at or below the floor means the key did
		// not change after minSeq and the whole key is skipped.
		if seq <= it.minSeq {
			it.merged.Next()
			continue
		}
		if kind == keys.KindDelete {
			if it.incTomb {
				it.isTomb = true
				it.value = nil
				it.valid = true
				return
			}
			it.merged.Next()
			continue
		}
		it.isTomb = false
		it.value = it.merged.Value()
		it.valid = true
		return
	}
	if err := it.merged.Error(); err != nil {
		it.err = err
	}
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return it.valid && it.err == nil }

// Key returns the current user key (valid until the next move).
func (it *Iterator) Key() []byte { return it.ukey }

// Value returns the current value (valid until the next move).
func (it *Iterator) Value() []byte { return it.value }

// IsTombstone reports whether the current position is a deletion. Only an
// iterator opened with ReadOptions.IncludeTombstones ever stops on one.
func (it *Iterator) IsTombstone() bool { return it.isTomb }

// Error reports the first failure encountered.
func (it *Iterator) Error() error { return it.err }

// Close releases the pinned snapshot and tables, plus any in-flight
// prefetch buffers (drained asynchronously; Close never blocks). Safe to
// call mid-scan and more than once.
func (it *Iterator) Close() {
	if it.v == nil {
		return
	}
	it.merged.Close()
	it.s.db.releaseSnapshot(it.snap)
	it.mem.Unref()
	for _, m := range it.imms {
		m.Unref()
	}
	it.v.Unref()
	it.v = nil
}
