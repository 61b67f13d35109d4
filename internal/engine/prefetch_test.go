package engine

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"dlsm/internal/rdma"
	"dlsm/internal/readahead"
	"dlsm/internal/sim"
)

// loadForScan writes n keys with a fixed permutation and settles the tree
// so every config scans the same table layout.
func loadForScan(t *testing.T, s *Session, db *DB, n int) {
	t.Helper()
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if err := s.Put(key(i), value(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	db.Flush()
	db.WaitForCompactions()
}

// fullScan walks the whole DB and returns the number of live entries.
func fullScan(t *testing.T, s *Session, ro ReadOptions) int {
	t.Helper()
	it := s.NewIteratorOpts(ro)
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return n
}

// Pipelined scans must return exactly the same entries as the synchronous
// path and finish in strictly less virtual time: the whole point of
// depth > 1 is overlapping chunk wire time with consumption.
func TestScanPrefetchSpeedupAndEquivalence(t *testing.T) {
	const n = 4000
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		loadForScan(t, s, db, n)

		elapsed := func(depth int) (int, sim.Duration) {
			t0 := env.Now()
			count := fullScan(t, s, ReadOptions{PrefetchDepth: depth})
			return count, sim.Duration(env.Now() - t0)
		}
		c1, d1 := elapsed(1)
		c4, d4 := elapsed(4)
		if c1 != n || c4 != n {
			t.Fatalf("scan counts: depth1 %d, depth4 %d, want %d", c1, c4, n)
		}
		if d4 >= d1 {
			t.Fatalf("depth 4 (%v) not faster than depth 1 (%v)", d4, d1)
		}
		if got := db.m.scan.BytesPrefetched.Load(); got == 0 {
			t.Fatal("scan.bytes_prefetched stayed zero across a depth-4 scan")
		}
	})
}

// Depth 1 — the ablation, no longer the default — must never touch the
// prefetch machinery: no pool, no pipelined counters, one synchronous
// PrefetchBytes read per chunk.
func TestScanDepth1BypassesPrefetcher(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		loadForScan(t, s, db, 2000)
		if got := fullScan(t, s, ReadOptions{PrefetchDepth: 1}); got != 2000 {
			t.Fatalf("scan = %d entries, want 2000", got)
		}
		if db.raPool != nil {
			t.Fatal("depth-1 scan created the readahead pool")
		}
		if got := db.m.scan.BytesPrefetched.Load(); got != 0 {
			t.Fatalf("depth-1 scan prefetched %d bytes", got)
		}
	})
}

// readSizes is a fault plane that injects nothing and records the largest
// one-sided read posted.
type readSizes struct{ largest atomic.Int64 }

func (r *readSizes) OnOp(op rdma.OpCode, from, to, bytes int) rdma.Fault {
	if op == rdma.OpRead && int64(bytes) > r.largest.Load() {
		r.largest.Store(int64(bytes))
	}
	return rdma.Fault{}
}

func (r *readSizes) LinkFactors(from, to int, now sim.Time) (float64, float64) { return 1, 1 }

// The default scan path's waste bound, end to end: with DefaultOptions'
// depth, a scan of any length prefetches at most 1.5x the bytes it read
// plus readahead.Floor (and an entry of rounding per chunk) per table
// iterator that fetched at all, and a 100-entry scan never posts a read
// over 64 KiB — where depth 1 reads PrefetchBytes from every table it
// touches.
func TestDefaultScanWasteBound(t *testing.T) {
	const n, valSize = 16_000, 400
	opts := smallOpts()
	opts.MemTableSize, opts.TableSize, opts.L1MaxBytes = 1<<20, 1<<20, 4<<20
	opts.EntrySizeHint = 420
	harness(t, opts, func(env *sim.Env, db *DB) {
		if d := DLSM(); db.opts.PrefetchDepth != d.PrefetchDepth || d.PrefetchDepth < 2 {
			t.Fatalf("default PrefetchDepth = %d, harness runs %d", d.PrefetchDepth, db.opts.PrefetchDepth)
		}
		s := db.NewSession()
		defer s.Close()
		val := make([]byte, valSize)
		for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
			if err := s.Put(key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		db.Flush()
		db.WaitForCompactions()

		reads := &readSizes{}
		db.cn.Fabric().SetInjector(reads)
		defer db.cn.Fabric().SetInjector(nil)
		m := db.m.scan
		slack := int64(readahead.Floor + (db.opts.PrefetchDepth+1)*(valSize+64))
		rng := rand.New(rand.NewSource(20230401))
		for _, length := range []int{1, 10, 100, 10_000} {
			for round := 0; round < 8; round++ {
				start := rng.Intn(n - length)
				p0, w0 := m.BytesPrefetched.Load(), m.BytesWasted.Load()
				lanes0, _ := db.scanPool().Lanes()
				reads.largest.Store(0)

				it := s.NewIterator()
				got := 0
				for it.SeekGE(key(start)); it.Valid() && got < length; it.Next() {
					got++
				}
				if err := it.Error(); err != nil || got != length {
					t.Fatalf("scan(%d, %d) = %d entries, %v", start, length, got, err)
				}
				it.Close()

				fetched := m.BytesPrefetched.Load() - p0
				consumed := fetched - (m.BytesWasted.Load() - w0)
				lanes, _ := db.scanPool().Lanes()
				if consumed < int64(length*valSize) {
					t.Fatalf("scan(%d, %d) consumed %d chunk bytes", start, length, consumed)
				}
				if bound := consumed + consumed/2 + int64(lanes-lanes0)*slack; fetched > bound {
					t.Errorf("scan(%d, %d): prefetched %d > 1.5 x %d consumed + %d fetching tables x %d",
						start, length, fetched, consumed, lanes-lanes0, slack)
				}
				if big := reads.largest.Load(); length <= 100 && big > 64<<10 {
					t.Errorf("scan(%d, %d) posted a %d-byte read", start, length, big)
				}
			}
		}
	})
}

// Scan resources over a DB's life: iterators closed mid-scan park their
// queue pairs with the abandoned fetches instead of spawning reapers, the
// next scans reuse them — steady state creates no queue pair, no buffer
// and no entity — and DB.Close reaps what is still on the wire.
func TestScanLifecycleLeavesNothingBehind(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		loadForScan(t, s, db, 4000)
		// One L0 file over the settled levels (below the compaction
		// trigger), so every scan merges several fetching tables.
		for i := 0; i < 4000; i += 8 {
			if err := s.Put(key(i), value(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		db.Flush()
		base := db.cn.NumQPs()

		rng := rand.New(rand.NewSource(11))
		midClose := func(rounds int) {
			for i := 0; i < rounds; i++ {
				it := s.NewIteratorOpts(ReadOptions{PrefetchDepth: 2 + 2*(i%3)})
				it.SeekGE(key(rng.Intn(3500)))
				for j := 0; j < 30 && it.Valid(); j++ {
					it.Next()
				}
				it.Close()
				it.Close() // idempotent
			}
		}
		midClose(20)
		if g := db.m.scan.Inflight.Load(); g == 0 {
			t.Fatal("no mid-scan close left a fetch in flight: the test exercises nothing")
		}
		if w := db.m.scan.BytesWasted.Load(); w == 0 {
			t.Fatal("mid-scan close counted no wasted bytes")
		}
		qps, goroutines := db.cn.NumQPs(), runtime.NumGoroutine()
		alloc, _ := db.scanPool().Stats()
		if qps < base+2 {
			t.Fatalf("scans took %d queue pairs, want one per concurrently fetching table", qps-base)
		}
		midClose(200)
		if got := db.cn.NumQPs(); got != qps {
			t.Errorf("steady-state scans changed the queue pair count: %d -> %d", qps, got)
		}
		if got := runtime.NumGoroutine(); got != goroutines {
			t.Errorf("steady-state scans changed the entity count: %d -> %d", goroutines, got)
		}
		if got, _ := db.scanPool().Stats(); got != alloc {
			t.Errorf("steady-state scans grew the buffer pool: %d -> %d", alloc, got)
		}

		pool := db.scanPool()
		db.Close()
		s.Close()
		if g := db.m.scan.Inflight.Load(); g != 0 {
			t.Errorf("scan.prefetch_inflight after DB.Close = %d", g)
		}
		if alloc, free := pool.Stats(); alloc != free {
			t.Errorf("pooled buffers leaked: allocated %d, free %d", alloc, free)
		}
		if _, idle := pool.Lanes(); idle != 0 {
			t.Errorf("%d scan lanes survived DB.Close", idle)
		}
		// Workers and the session closed theirs; a scan lane would be the
		// only queue pair left.
		if got := db.cn.NumQPs(); got != 0 {
			t.Errorf("compute node holds %d queue pairs after DB.Close", got)
		}
	})
}

// Back-to-back pipelined scans must recycle the pool instead of growing
// it: steady state allocates no new buffers.
func TestScanPoolRecyclesAcrossIterators(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		loadForScan(t, s, db, 2000)

		fullScan(t, s, ReadOptions{PrefetchDepth: 4})
		alloc1, _ := db.scanPool().Stats()
		for i := 0; i < 3; i++ {
			fullScan(t, s, ReadOptions{PrefetchDepth: 4})
		}
		alloc2, free2 := db.scanPool().Stats()
		if alloc2 != alloc1 {
			t.Fatalf("steady-state scans grew the pool: %d -> %d buffers", alloc1, alloc2)
		}
		if alloc2 != free2 {
			t.Fatalf("buffers still out after scans closed: allocated %d, free %d", alloc2, free2)
		}
	})
}
