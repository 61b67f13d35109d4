package sstable

import (
	"fmt"
	"testing"

	"dlsm/internal/keys"
	"dlsm/internal/rdma"
	"dlsm/internal/readahead"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// entry is one KV pair for edge-case table construction.
type entry struct {
	key string
	val []byte
}

func valOf(i, size int) []byte {
	v := make([]byte, size)
	copy(v, fmt.Sprintf("value-%06d-", i))
	return v
}

func uniformEntries(n, valSize int) []entry {
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{key: fmt.Sprintf("key-%06d", i), val: valOf(i, valSize)}
	}
	return out
}

// remoteTable builds a table from entries, places it in a registered
// region on a simulated memory node and runs fn inside the simulation
// with iterator factories for both the synchronous path and, when
// depth > 1, a pipelined-readahead path on a pooled scan QP.
func remoteTable(t *testing.T, format Format, blockSize int, entries []entry,
	fn func(env *sim.Env, r *Reader, newIter func(prefetch, depth int) Iterator)) {
	t.Helper()
	remoteTableMetrics(t, format, blockSize, entries, readahead.Metrics{}, fn)
}

// remoteTableMetrics is remoteTable with the scan pool's telemetry wired.
func remoteTableMetrics(t *testing.T, format Format, blockSize int, entries []entry, m readahead.Metrics,
	fn func(env *sim.Env, r *Reader, newIter func(prefetch, depth int) Iterator)) {
	t.Helper()
	var buf []byte
	w := NewWriter(format, memSink{&buf}, blockSize, 10, Options{})
	for i, e := range entries {
		w.Add(keys.Append(nil, []byte(e.key), keys.Seq(i+1), keys.KindSet), e.val)
	}
	res, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 4)
	mn := fab.AddNode("memory", 4)
	env.Run(func() {
		mr := mn.Register(len(buf) + 1)
		copy(mr.Bytes(0, len(buf)), buf)
		meta := &Meta{
			ID: 1, Size: res.Size, Count: res.Count,
			Smallest: res.Smallest, Largest: res.Largest,
			Format: format, BlockSize: blockSize,
			Index: res.Index, Filter: res.Filter,
			Data: mr.Addr(0),
		}
		qp := cn.NewQP(mn)
		r := NewReader(meta, NewQPFetcher(qp, meta.Data), Options{})
		pool := readahead.NewPool(cn, mn, 1<<20, m)
		newIter := func(prefetch, depth int) Iterator {
			if depth <= 1 {
				return r.NewIterator(prefetch)
			}
			return r.NewIteratorOpts(IterOpts{
				Prefetch:  prefetch,
				Readahead: &readahead.Config{Pool: pool, Depth: depth, MaxWindow: prefetch},
			})
		}
		fn(env, r, newIter)
		qp.Close()
		fab.Close()
	})
	env.Wait()
}

// iterMatrix runs a sub-test for both formats at depth 1 and depth 4.
func iterMatrix(t *testing.T, entries []entry, prefetch int,
	check func(t *testing.T, it Iterator, entries []entry)) {
	for _, format := range []Format{ByteAddr, Block} {
		for _, depth := range []int{1, 4} {
			name := fmt.Sprintf("%v/depth%d", format, depth)
			t.Run(name, func(t *testing.T) {
				remoteTable(t, format, 2<<10, entries,
					func(env *sim.Env, r *Reader, newIter func(int, int) Iterator) {
						it := newIter(prefetch, depth)
						check(t, it, entries)
						it.Close()
					})
			})
		}
	}
}

func checkFullScan(t *testing.T, it Iterator, entries []entry) {
	t.Helper()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if i >= len(entries) {
			t.Fatalf("iterated past %d entries", len(entries))
		}
		if got := string(keys.UserKey(it.Key())); got != entries[i].key {
			t.Fatalf("key[%d] = %q, want %q", i, got, entries[i].key)
		}
		if got := it.Value(); string(got) != string(entries[i].val) {
			t.Fatalf("value[%d] mismatch (%d vs %d bytes)", i, len(got), len(entries[i].val))
		}
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("iterated %d entries, want %d", i, len(entries))
	}
}

func TestIterSeekPastLastKey(t *testing.T) {
	iterMatrix(t, uniformEntries(200, 40), 4<<10, func(t *testing.T, it Iterator, entries []entry) {
		it.SeekGE(keys.AppendLookup(nil, []byte("zzz"), keys.MaxSeq))
		if it.Valid() {
			t.Fatalf("SeekGE(zzz) valid at %q", it.Key())
		}
		// The iterator must recover from an exhausted position.
		it.SeekGE(keys.AppendLookup(nil, []byte(entries[100].key), keys.MaxSeq))
		if !it.Valid() || string(keys.UserKey(it.Key())) != entries[100].key {
			t.Fatalf("re-seek after exhaustion at %q", it.Key())
		}
		if string(it.Value()) != string(entries[100].val) {
			t.Fatal("re-seek value mismatch")
		}
	})
}

func TestIterEmptyTable(t *testing.T) {
	iterMatrix(t, nil, 4<<10, func(t *testing.T, it Iterator, _ []entry) {
		it.First()
		if it.Valid() {
			t.Fatal("empty table First() valid")
		}
		it.SeekGE(keys.AppendLookup(nil, []byte("a"), keys.MaxSeq))
		if it.Valid() {
			t.Fatal("empty table SeekGE() valid")
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestIterPrefetchLargerThanTable(t *testing.T) {
	// 50 small entries, multi-MB window: one chunk covers the whole table.
	iterMatrix(t, uniformEntries(50, 40), 8<<20, checkFullScan)
}

// A value much larger than the adaptive window: the chunk planner must
// grow the chunk to the whole entry (or block) instead of splitting a KV
// across chunk boundaries.
func TestIterChunkBoundarySplitsEntry(t *testing.T) {
	entries := uniformEntries(64, 100)
	entries[20].val = valOf(20, 9<<10) // bigger than the 4KB min window and the 2KB block size target
	entries[40].val = valOf(40, 6<<10)
	iterMatrix(t, entries, 4<<10, checkFullScan)
}

// Interleaved seeks and scans at depth > 1: seeking backwards abandons the
// pipelined run, seeking forward skips chunks; contents must match the
// synchronous iterator exactly.
func TestIterSeekScanPipelined(t *testing.T) {
	entries := uniformEntries(400, 120)
	for _, format := range []Format{ByteAddr, Block} {
		t.Run(format.String(), func(t *testing.T) {
			remoteTable(t, format, 2<<10, entries,
				func(env *sim.Env, r *Reader, newIter func(int, int) Iterator) {
					sync := newIter(8<<10, 1)
					pipe := newIter(8<<10, 4)
					for _, start := range []int{350, 0, 123, 399, 42} {
						target := keys.AppendLookup(nil, []byte(entries[start].key), keys.MaxSeq)
						sync.SeekGE(target)
						pipe.SeekGE(target)
						for n := 0; n < 60; n++ {
							if sync.Valid() != pipe.Valid() {
								t.Fatalf("start %d step %d: valid %v vs %v", start, n, sync.Valid(), pipe.Valid())
							}
							if !sync.Valid() {
								break
							}
							if string(sync.Key()) != string(pipe.Key()) {
								t.Fatalf("start %d step %d: key %q vs %q", start, n, sync.Key(), pipe.Key())
							}
							if string(sync.Value()) != string(pipe.Value()) {
								t.Fatalf("start %d step %d: value mismatch at %q", start, n, sync.Key())
							}
							sync.Next()
							pipe.Next()
						}
					}
					sync.Close()
					pipe.Close()
				})
		})
	}
}

// What a closed scan prefetched and did not waste is what its iterator
// read — from the first byte it asked for to the last, once: the window
// reports how far into the resident chunk the iterator got, so the tail it
// never reached counts as wasted like the fetches still in flight.
func TestIterClosedScanCountsUnreadTailAsWasted(t *testing.T) {
	entries := uniformEntries(2000, 100)
	for _, format := range []Format{ByteAddr, Block} {
		t.Run(format.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry(nil)
			m := readahead.Metrics{BytesPrefetched: reg.Counter("prefetched"), BytesWasted: reg.Counter("wasted")}
			remoteTableMetrics(t, format, 2<<10, entries, m,
				func(env *sim.Env, r *Reader, newIter func(int, int) Iterator) {
					lookup := func(i int) []byte {
						return keys.AppendLookup(nil, []byte(entries[i].key), keys.MaxSeq)
					}
					// span is the table bytes the iterator asks for at entry
					// i: its value (ByteAddr) or its whole block (Block).
					span := func(i int) (lo, hi int) {
						_, off, a, b := r.meta.Index.Record(r.meta.Index.SeekGE(lookup(i), keys.Compare))
						if format == ByteAddr {
							return int(off) + int(a), int(off) + int(a) + int(b)
						}
						return int(off), int(off) + int(a)
					}
					for _, scan := range [][2]int{{0, 1}, {100, 37}, {1500, 400}, {7, 150}} {
						first, last := scan[0], scan[0]+scan[1]-1
						p0, w0 := m.BytesPrefetched.Load(), m.BytesWasted.Load()
						it := newIter(64<<10, 2)
						it.SeekGE(lookup(first))
						for i := first; ; i++ {
							if !it.Valid() || string(it.Value()) != string(entries[i].val) {
								t.Fatalf("scan from %d: entry %d missing or wrong", first, i)
							}
							if i == last {
								break
							}
							it.Next()
						}
						it.Close()
						lo, _ := span(first)
						_, hi := span(last)
						fetched := m.BytesPrefetched.Load() - p0
						if got := fetched - (m.BytesWasted.Load() - w0); got != int64(hi-lo) {
							t.Errorf("scan [%d, %d]: prefetched %d - wasted = %d, the iterator read %d",
								first, last, fetched, got, hi-lo)
						}
					}
				})
		})
	}
}
