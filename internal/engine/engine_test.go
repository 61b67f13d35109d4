package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

// smallOpts shrinks everything so a few thousand writes exercise flushes,
// L0 compactions and deeper-level compactions.
func smallOpts() Options {
	o := DLSM()
	o.MemTableSize = 64 << 10
	o.TableSize = 64 << 10
	o.L1MaxBytes = 256 << 10
	o.EntrySizeHint = 120
	o.FlushWorkers = 2
	o.CompactionWorkers = 2
	o.Subcompactions = 4
	return o
}

// mustOpen is Open under the zero Binding, for configurations that cannot
// fail to open.
func mustOpen(cn *rdma.Node, srv *memnode.Server, opts Options) *DB {
	db, err := Open(cn, srv, opts, Binding{})
	if err != nil {
		panic(err)
	}
	return db
}

// harness runs fn inside a fresh simulated deployment and tears it down.
func harness(t *testing.T, opts Options, fn func(env *sim.Env, db *DB)) {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	env.Run(func() {
		db := mustOpen(cn, srv, opts)
		fn(env, db)
		db.Close()
		fab.Close()
	})
	env.Wait()
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%08d-%060d", i, i)) }

func TestPutGetInMemory(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		s.Put([]byte("hello"), []byte("world"))
		v, err := s.Get([]byte("hello"))
		if err != nil || string(v) != "world" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if _, err := s.Get([]byte("absent")); err != ErrNotFound {
			t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
		}
	})
}

func TestOverwriteVisibility(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		s.Put([]byte("k"), []byte("v1"))
		snap := db.CurrentSeq()
		s.Put([]byte("k"), []byte("v2"))
		if v, _ := s.Get([]byte("k")); string(v) != "v2" {
			t.Fatalf("Get = %q, want v2", v)
		}
		if v, _ := s.GetAt([]byte("k"), snap); string(v) != "v1" {
			t.Fatalf("GetAt = %q, want v1", v)
		}
	})
}

func TestDeleteHidesKey(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		s.Put([]byte("k"), []byte("v"))
		snap := db.CurrentSeq()
		s.Delete([]byte("k"))
		if _, err := s.Get([]byte("k")); err != ErrNotFound {
			t.Fatalf("deleted key visible: %v", err)
		}
		if v, err := s.GetAt([]byte("k"), snap); err != nil || string(v) != "v" {
			t.Fatalf("old snapshot lost the key: %q, %v", v, err)
		}
	})
}

// writeRead drives enough data through the engine to force flushes and
// compactions, then verifies every key.
func writeRead(t *testing.T, opts Options, n int) {
	harness(t, opts, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		perm := rand.New(rand.NewSource(42)).Perm(n)
		for _, i := range perm {
			s.Put(key(i), value(i))
		}
		if got := db.Stats().Flushes.Load(); got == 0 {
			t.Fatal("no flush happened; test is not exercising the LSM")
		}
		for i := 0; i < n; i += 7 {
			v, err := s.Get(key(i))
			if err != nil {
				t.Fatalf("Get(%s): %v", key(i), err)
			}
			if string(v) != string(value(i)) {
				t.Fatalf("Get(%s) = %q, want %q", key(i), v, value(i))
			}
		}
		db.WaitForCompactions()
		total := db.Stats().RemoteCompactions.Load() + db.Stats().LocalCompactions.Load()
		if total == 0 {
			t.Fatal("no compaction ran")
		}
		// All keys still present after the tree settled.
		for i := 0; i < n; i += 13 {
			if _, err := s.Get(key(i)); err != nil {
				t.Fatalf("post-compaction Get(%s): %v", key(i), err)
			}
		}
	})
}

func TestWriteReadNearData(t *testing.T) { writeRead(t, smallOpts(), 5000) }
func TestWriteReadLocalCompaction(t *testing.T) {
	o := smallOpts()
	o.CompactionSite = CompactLocal
	writeRead(t, o, 5000)
}
func TestWriteReadBlockFormat(t *testing.T) {
	o := smallOpts()
	o.Format = sstable.Block
	o.BlockSize = 2 << 10
	writeRead(t, o, 5000)
}
func TestWriteReadFSTransport(t *testing.T) {
	o := smallOpts()
	o.Format = sstable.Block
	o.Transport = TransportFS
	o.CompactionSite = CompactLocal
	o.AsyncFlush = false
	o.SwitchPolicy = SwitchLocked
	writeRead(t, o, 5000)
}
func TestWriteReadTmpfsTransport(t *testing.T) {
	o := smallOpts()
	o.Format = sstable.Block
	o.Transport = TransportTmpfsRPC
	o.CompactionSite = CompactLocal
	o.AsyncFlush = false
	o.SwitchPolicy = SwitchLocked
	writeRead(t, o, 3000)
}
func TestWriteReadSyncFlush(t *testing.T) {
	o := smallOpts()
	o.AsyncFlush = false
	writeRead(t, o, 3000)
}

func TestConcurrentWritersAllDataSurvives(t *testing.T) {
	const writers, per = 8, 800
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		wg := sim.NewWaitGroup(env)
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				s := db.NewSession()
				defer s.Close()
				for i := 0; i < per; i++ {
					k := []byte(fmt.Sprintf("w%02d-%06d", w, i))
					s.Put(k, k)
				}
			})
		}
		wg.Wait()
		db.Flush()
		s := db.NewSession()
		defer s.Close()
		for w := 0; w < writers; w++ {
			for i := 0; i < per; i += 17 {
				k := []byte(fmt.Sprintf("w%02d-%06d", w, i))
				v, err := s.Get(k)
				if err != nil || string(v) != string(k) {
					t.Fatalf("Get(%s) = %q, %v", k, v, err)
				}
			}
		}
	})
}

func TestIteratorFullScanSortedComplete(t *testing.T) {
	const n = 4000
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		perm := rand.New(rand.NewSource(7)).Perm(n)
		for _, i := range perm {
			s.Put(key(i), value(i))
		}
		it := s.NewIterator()
		defer it.Close()
		count := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key()) != string(key(count)) {
				t.Fatalf("scan[%d] = %q, want %q", count, it.Key(), key(count))
			}
			if string(it.Value()) != string(value(count)) {
				t.Fatalf("scan[%d] value mismatch", count)
			}
			count++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("scanned %d keys, want %d", count, n)
		}
	})
}

func TestIteratorSeesNewestVersionOnly(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for round := 0; round < 3; round++ {
			for i := 0; i < 500; i++ {
				s.Put(key(i), []byte(fmt.Sprintf("round-%d", round)))
			}
		}
		s.Delete(key(250))
		it := s.NewIterator()
		defer it.Close()
		count := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Value()) != "round-2" {
				t.Fatalf("key %q has value %q, want round-2", it.Key(), it.Value())
			}
			if string(it.Key()) == string(key(250)) {
				t.Fatal("deleted key visible in scan")
			}
			count++
		}
		if count != 499 {
			t.Fatalf("scanned %d keys, want 499", count)
		}
	})
}

func TestIteratorSeekGE(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 1000; i++ {
			s.Put(key(i*2), value(i*2))
		}
		it := s.NewIterator()
		defer it.Close()
		it.SeekGE(key(501)) // odd: lands on 502
		if !it.Valid() || string(it.Key()) != string(key(502)) {
			t.Fatalf("SeekGE landed on %q", it.Key())
		}
	})
}

func TestIteratorSnapshotIgnoresLaterWrites(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 100; i++ {
			s.Put(key(i), []byte("old"))
		}
		it := s.NewIterator()
		defer it.Close()
		for i := 0; i < 100; i++ {
			s.Put(key(i), []byte("new"))
		}
		s.Put(key(200), []byte("new"))
		count := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Value()) != "old" {
				t.Fatalf("snapshot scan saw %q", it.Value())
			}
			count++
		}
		if count != 100 {
			t.Fatalf("snapshot scan saw %d keys, want 100", count)
		}
	})
}

func TestStallsInNormalModeNotInBulkload(t *testing.T) {
	normal := smallOpts()
	normal.L0StopTrigger = 2 // tiny: stalls guaranteed
	var normalStalls int64
	harness(t, normal, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 4000; i++ {
			s.Put(key(i), value(i))
		}
		normalStalls = db.Stats().Stalls.Load()
	})
	if normalStalls == 0 {
		t.Fatal("no write stalls with level0_stop_writes_trigger=2")
	}

	bulk := smallOpts()
	bulk.L0StopTrigger = 0 // bulkload: never stall on L0
	harness(t, bulk, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 4000; i++ {
			s.Put(key(i), value(i))
		}
		// Stalls can still come from MaxImmutables, but L0 must not gate:
		// verify L0 can exceed the normal-mode trigger.
		if got := db.Stats().Stalls.Load(); got > 0 && db.l0count.Load() <= 2 {
			t.Fatalf("bulkload stalled %d times at tiny L0", got)
		}
	})
}

func TestSpaceReclaimedByGC(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		// Overwrite the same small key set many times: compaction should
		// keep space bounded near one copy of the live data.
		for round := 0; round < 20; round++ {
			for i := 0; i < 500; i++ {
				s.Put(key(i), value(i))
			}
		}
		db.Flush()
		db.WaitForCompactions()
		if db.Stats().TablesFreed.Load() == 0 {
			t.Fatal("no tables were garbage collected")
		}
		live := int64(500 * 120)
		if used := db.SpaceUsed(); used > 30*live {
			t.Fatalf("space used %d, live data only %d: GC not reclaiming", used, live)
		}
	})
}

func TestFlushMakesMemtableDurable(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		s.Put([]byte("k"), []byte("v"))
		db.Flush()
		if db.Stats().Flushes.Load() == 0 {
			t.Fatal("Flush did not flush")
		}
		if v, err := s.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("Get after flush = %q, %v", v, err)
		}
	})
}

func TestRemoteCompactionMovesNoTableBytes(t *testing.T) {
	// Near-data compaction must not transfer table data over the fabric:
	// compare compute->memory traffic against flushed bytes.
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	env.Run(func() {
		db := mustOpen(cn, srv, smallOpts())
		s := db.NewSession()
		for i := 0; i < 8000; i++ {
			s.Put(key(i), value(i))
		}
		db.Flush()
		db.WaitForCompactions()
		if db.Stats().RemoteCompactions.Load() == 0 {
			t.Error("no remote compaction ran")
		}
		flushed := db.Stats().BytesFlushed.Load()
		compacted := db.Stats().CompactionBytesIn.Load() + db.Stats().CompactionBytesOut.Load()
		sent, _ := fab.LinkStats(cn, mn)
		recvd, _ := fab.LinkStats(mn, cn)
		// Compute->memory carries flushes (data + index/filter footer,
		// <=~1.6x data at these entry sizes) plus small RPCs. Had the
		// compaction inputs crossed the wire, sent would include
		// CompactionBytesIn on top.
		if sent > flushed*8/5+compacted/4 {
			t.Errorf("compute->memory sent %d bytes (flushed %d, compacted %d): compaction data crossed the wire",
				sent, flushed, compacted)
		}
		// Memory->compute carries only new-table metadata replies — a
		// fraction of the compacted bytes, not the bytes themselves.
		if recvd > compacted/2 {
			t.Errorf("memory->compute received %d of %d compacted bytes: table data came back", recvd, compacted)
		}
		s.Close()
		db.Close()
		fab.Close()
	})
	env.Wait()
}

func TestTelemetrySnapshot(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 4000; i++ {
			s.Put(key(i), value(i))
		}
		db.Flush()
		db.WaitForCompactions()
		for i := 0; i < 500; i++ {
			if _, err := s.Get(key(i)); err != nil {
				t.Fatalf("Get(%d): %v", i, err)
			}
		}

		snap := db.Telemetry().Snapshot()
		wl := snap.Histograms["engine.write.latency_ns"]
		if wl.Count != 4000 {
			t.Fatalf("write latency count = %d, want 4000", wl.Count)
		}
		// Most writes finish in 0 virtual ns (nothing blocks), so P50 may be
		// 0; the tail (switch waits, stalls) must show up in Sum and Max.
		if wl.Sum <= 0 || wl.Max <= 0 {
			t.Fatalf("write latency sum/max = %d/%d, want > 0", wl.Sum, wl.Max)
		}
		rl := snap.Histograms["engine.read.latency_ns"]
		if rl.Count != 500 {
			t.Fatalf("read latency count = %d, want 500", rl.Count)
		}
		if fl := snap.Histograms["engine.flush.latency_ns"]; fl.Count != snap.Counters["engine.flushes"]+0 && fl.Count == 0 {
			t.Fatalf("flush latency count = %d", fl.Count)
		}
		if snap.Counters["engine.writes"] != 4000 || snap.Counters["engine.reads"] != 500 {
			t.Fatalf("writes/reads = %d/%d", snap.Counters["engine.writes"], snap.Counters["engine.reads"])
		}
		if snap.Counters["flush.bytes_submitted"] == 0 {
			t.Fatal("flush.bytes_submitted = 0; pipeline metrics not wired")
		}
		if snap.Counters["flush.buffers_allocated"] == 0 {
			t.Fatal("flush.buffers_allocated = 0")
		}
		if g, ok := snap.Gauges["flush.buffers_inflight"]; !ok || g != 0 {
			t.Fatalf("flush.buffers_inflight = %d (present=%v), want 0 after settle", g, ok)
		}
		// smallOpts forces L0 compactions; per-level byte counters must exist
		// and carry the compacted volume.
		if _, ok := snap.Counters["engine.compaction.L0.bytes_in"]; !ok {
			t.Fatal("missing engine.compaction.L0.bytes_in")
		}
		if snap.Counters["engine.compaction.bytes_in"] > 0 &&
			snap.Counters["engine.compaction.L0.bytes_in"] == 0 {
			t.Fatal("compactions ran but L0 per-level counter stayed 0")
		}
		// Reads after compaction hit SSTables: the reader metrics must move.
		if snap.Counters["engine.read.table_fetches"] == 0 {
			t.Fatal("engine.read.table_fetches = 0; reader metrics not wired")
		}
		if snap.Counters["engine.read.table_fetch_bytes"] == 0 {
			t.Fatal("engine.read.table_fetch_bytes = 0")
		}
	})
}

func TestStatsBackedByTelemetry(t *testing.T) {
	// The migrated Stats fields and the registry must be the same storage.
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 100; i++ {
			s.Put(key(i), value(i))
		}
		if got := db.Stats().Writes.Load(); got != 100 {
			t.Fatalf("Stats().Writes = %d, want 100", got)
		}
		if got := db.Telemetry().Snapshot().Counters["engine.writes"]; got != 100 {
			t.Fatalf("registry engine.writes = %d, want 100", got)
		}
	})
}
