package engine

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dlsm/internal/lease"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/wal"
)

// deployment is harness with the pieces exposed: the tests below crash the
// compute node, recover on a second one, or need the memory node's lease
// table.
func deployment(t *testing.T, fn func(env *sim.Env, cn1, cn2 *rdma.Node, srv *memnode.Server)) {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn1 := fab.AddNode("compute1", 24)
	cn2 := fab.AddNode("compute2", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	env.Run(func() {
		defer fab.Close()
		fn(env, cn1, cn2, srv)
	})
	env.Wait()
}

// putAll runs writers concurrent sessions, each putting per keys of its own
// (key(w*per+i) -> value(w*per+i)), and returns once all are done.
func putAll(t *testing.T, env *sim.Env, db *DB, writers, per int) {
	t.Helper()
	wg := sim.NewWaitGroup(env)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := w * per; i < (w+1)*per; i++ {
				if err := s.Put(key(i), value(i)); err != nil {
					t.Errorf("Put(%s): %v", key(i), err)
					return
				}
			}
		})
	}
	wg.Wait()
}

// wantAll reads keys [0,n) back and checks each holds its own value.
func wantAll(t *testing.T, db *DB, n int) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	for i := 0; i < n; i++ {
		if v, err := s.Get(key(i)); err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), v, err)
		}
	}
}

// TestNoParkOnLogUnderClaim: the ring is a fifth of one MemTable, so it
// fills from the current table alone and a parked writer gets space back
// only through kick -> switch -> flush -> checkpoint -> trim. The flush's
// quiesce barrier waits for every sequence claim below the table's range:
// one writer parked on the ring while holding a claim and the chain never
// completes. Then the compute node dies with the last table unflushed and
// recovery must return every acknowledged write.
func TestNoParkOnLogUnderClaim(t *testing.T) {
	const writers, per = 16, 400
	opts := smallOpts()
	opts.MemTableSize = 512 << 10
	opts.TableSize = 512 << 10
	opts.L1MaxBytes = 2 << 20
	opts.Durability = DurabilitySync
	opts.WALSize = 128 << 10
	deployment(t, func(env *sim.Env, cn1, cn2 *rdma.Node, srv *memnode.Server) {
		db := mustOpen(cn1, srv, opts)
		putAll(t, env, db, writers, per)
		st := db.Stats()
		if st.WALRingStalls.Load() == 0 || st.Flushes.Load() == 0 {
			t.Fatalf("ring_stalls=%d flushes=%d: the ring never filled, the scenario is vacuous",
				st.WALRingStalls.Load(), st.Flushes.Load())
		}
		cn1.Crash()
		db.Close()

		db2, err := Recover(cn2, srv, opts, Binding{})
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		defer db2.Close()
		wantAll(t, db2, writers*per)
		t.Logf("ring_stalls=%d flushes=%d replayed=%d", st.WALRingStalls.Load(), st.Flushes.Load(),
			db2.Stats().WALReplayed.Load())
	})
}

// TestRefusedWriteLeavesNoTrace: a write the log refuses — an entry no
// record can hold, or any write after the lease was lost — returns the
// error and is not in the MemTable (at the parent commit it was inserted
// first and reported failed afterwards). Nothing it touched may wedge the
// flush pipeline.
func TestRefusedWriteLeavesNoTrace(t *testing.T) {
	opts := smallOpts()
	opts.Durability = DurabilitySync
	opts.WALSize = 256 << 10

	t.Run("too large", func(t *testing.T) {
		harness(t, opts, func(env *sim.Env, db *DB) {
			s := db.NewSession()
			defer s.Close()
			big := make([]byte, 100<<10) // a record holds at most a quarter of the ring
			if err := s.Put([]byte("big"), big); !errors.Is(err, wal.ErrTooLarge) {
				t.Fatalf("Put(100 KiB value) = %v, want ErrTooLarge", err)
			}
			var b Batch
			b.Put(key(0), value(0))
			b.Put([]byte("big"), big)
			if err := s.Apply(&b); !errors.Is(err, wal.ErrTooLarge) {
				t.Fatalf("Apply = %v, want ErrTooLarge", err)
			}
			if _, err := s.Get([]byte("big")); err != ErrNotFound {
				t.Fatalf("Get(refused key) = %v, want ErrNotFound", err)
			}
			putAll(t, env, db, 4, 500)
			db.Flush()
			if db.Stats().Flushes.Load() == 0 {
				t.Fatal("no flush after the refused writes")
			}
			wantAll(t, db, 4*500)
		})
	})

	t.Run("fenced", func(t *testing.T) {
		deployment(t, func(env *sim.Env, cn1, cn2 *rdma.Node, srv *memnode.Server) {
			ls, err := srv.OpenLease(lease.SlotKey(0, 0))
			if err != nil {
				t.Fatalf("OpenLease: %v", err)
			}
			cl1 := lease.NewClient(cn1, srv.Node(), ls.Addr, 0)
			defer cl1.Close()
			l1, err := cl1.Acquire()
			if err != nil {
				t.Fatalf("Acquire: %v", err)
			}
			db, err := Open(cn1, srv, opts, Binding{Fence: ls.Addr, FenceWord: l1.Word()})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer db.Close()
			s := db.NewSession()
			defer s.Close()
			if err := s.Put(key(0), value(0)); err != nil {
				t.Fatalf("Put under the lease: %v", err)
			}
			cl2 := lease.NewClient(cn2, srv.Node(), ls.Addr, 1)
			defer cl2.Close()
			if _, err := cl2.Takeover(); err != nil {
				t.Fatalf("Takeover: %v", err)
			}
			// The first write after the takeover finds the fence out the hard
			// way: its doorbell is what fails. From then on the log is known
			// broken and refuses at Reserve.
			if err := s.Put(key(1), value(1)); !errors.Is(err, ErrFenced) {
				t.Fatalf("Put after takeover = %v, want ErrFenced", err)
			}
			if err := s.Put(key(2), value(2)); !errors.Is(err, ErrFenced) {
				t.Fatalf("second Put after takeover = %v, want ErrFenced", err)
			}
			if _, err := s.Get(key(2)); err != ErrNotFound {
				t.Fatalf("Get(refused key) = %v, want ErrNotFound", err)
			}
			db.Flush() // must drain: no claim, no reservation left behind
		})
	})
}

// TestSyncPutOverlapsLogRoundTrip: on an idle DB a sync Put costs
// max(insert, round trip), not their sum, and a sync batch costs its
// inserts — the doorbell flies while the MemTable work runs, and the writer
// finds its record durable when it gets to Commit.
func TestSyncPutOverlapsLogRoundTrip(t *testing.T) {
	opts := smallOpts()
	opts.MemTableSize = 8 << 20 // no switch inside the measurement
	opts.Durability = DurabilitySync
	harness(t, opts, func(env *sim.Env, db *DB) {
		const n, slack = 1000, 300 * time.Nanosecond
		s := db.NewSession()
		defer s.Close()
		start := env.Now()
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), value(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		mean := time.Duration(env.Now()-start) / n
		if limit := opts.Costs.MemInsert + slack; mean > limit {
			t.Fatalf("mean sync Put = %v, want <= %v (insert %v; the log round trip must hide behind it)",
				mean, limit, opts.Costs.MemInsert)
		}
		park := db.tel.Histogram("wal.commit_park_ns").Snapshot()
		if park.Count != n || park.P50 != 0 {
			t.Fatalf("wal.commit_park_ns: %d samples, p50 %d; want %d, 0", park.Count, park.P50, n)
		}

		var b Batch
		for i := 0; i < 32; i++ {
			b.Put(key(n+i), value(n+i))
		}
		logged := db.Stats().WALBytes.Load()
		start = env.Now()
		if err := s.Apply(&b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		// One record for the batch: its inserts, the one copy that frames
		// it, and no wait.
		frame := sim.Bytes(int(db.Stats().WALBytes.Load()-logged), opts.Costs.MemcpyByte)
		if d, limit := time.Duration(env.Now()-start), 32*opts.Costs.MemInsert+frame+slack; d > limit {
			t.Fatalf("sync Apply of 32 = %v, want <= %v", d, limit)
		}
		t.Logf("mean sync Put %v (insert %v)", mean, opts.Costs.MemInsert)
	})
}

// TestOffloadReplayViewIsComplete: every record is in the log before its
// writer's claim clears, so a near-data flush's replay view never misses
// an entry however the writers interleave with the switch: no fallback,
// and every flush is built from the log ring.
func TestOffloadReplayViewIsComplete(t *testing.T) {
	const writers, per = 16, 500
	opts := smallOpts()
	opts.Durability = DurabilitySync
	harness(t, opts, func(env *sim.Env, db *DB) {
		putAll(t, env, db, writers, per)
		db.Flush()
		db.WaitForCompactions()
		st := db.Stats()
		flushes, nearData := st.Flushes.Load(), st.OffloadedFlushes.Load()
		if fb := st.OffloadFallbacks.Load(); fb != 0 || flushes == 0 || nearData != flushes {
			t.Fatalf("flushes=%d built near data=%d fallbacks=%d; want every flush built from the ring, none fallen back",
				flushes, nearData, fb)
		}
		wantAll(t, db, writers*per)
	})
}

// TestReplyRegionGrowsToFitMetas: a compaction (or near-data flush) whose
// output metas outgrow the reply region used to run to completion on the
// memory node, fail with "reply too large" and be redone compute-side. The
// RPC client sizes its reply region from the inputs before the call, so
// large clients start at 64 KiB — less than any compaction's reply bound.
func TestReplyRegionGrowsToFitMetas(t *testing.T) {
	const n = 6000
	opts := smallOpts()
	opts.Durability = DurabilitySync
	harness(t, opts, func(env *sim.Env, db *DB) {
		putAll(t, env, db, 4, n/4)
		db.Flush()
		db.WaitForCompactions()
		st := db.Stats()
		if st.RemoteCompactions.Load() == 0 || st.OffloadedFlushes.Load() == 0 {
			t.Fatalf("remote compactions=%d offloaded flushes=%d: nothing exercised the large-reply RPCs",
				st.RemoteCompactions.Load(), st.OffloadedFlushes.Load())
		}
		if cf, of := st.CompactionFallbacks.Load(), st.OffloadFallbacks.Load(); cf != 0 || of != 0 {
			t.Fatalf("compaction.fallback=%d offload.fallback=%d, want 0", cf, of)
		}
		wantAll(t, db, n)
	})
}

// TestRingFullKickCutsNoUndersizedTables: when writers outrun the flush
// pipeline the log ring fills while immutables are still queued. Kicking a
// MemTable switch then frees nothing the queued flushes would not free
// anyway, and cuts an undersized table: every L0 table but the last Flush's
// must hold a full MemTable's worth.
func TestRingFullKickCutsNoUndersizedTables(t *testing.T) {
	const writers, per = 16, 1500
	opts := offloadOpts()
	opts.Durability = DurabilityAsync    // writers never wait for the log: the ring is what stops them
	opts.WALSize = 4 * opts.MemTableSize // a ring of three MemTables, fewer than may queue
	harness(t, opts, func(env *sim.Env, db *DB) {
		putAll(t, env, db, writers, per)
		db.Flush()
		st := db.Stats()
		if st.WALRingStalls.Load() == 0 {
			t.Fatal("the ring never filled: the scenario exercises nothing")
		}
		v := db.vs.Current()
		defer v.Unref()
		tables := v.Levels[0]
		full := 0
		for _, m := range tables {
			full = max(full, m.Count)
		}
		small := 0
		for _, m := range tables {
			if m.Count < full*8/10 {
				small++
			}
		}
		if small > 1 { // the one Flush cut at the end
			t.Errorf("%d of %d L0 tables hold under 80%% of a MemTable's %d entries (ring stalls %d)", small, len(tables), full, st.WALRingStalls.Load())
		}
		wantAll(t, db, writers*per)
	})
}
