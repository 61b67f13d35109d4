package faults

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/lease"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/repl"
	"dlsm/internal/sim"
)

// leaseOpts is the small-table Sync-durability configuration shared by the
// lease handoff scenarios (mirrors runCrashRecovery's).
func leaseOpts() engine.Options {
	opts := engine.DLSM()
	opts.MemTableSize = 64 << 10
	opts.TableSize = 64 << 10
	opts.EntrySizeHint = 64
	opts.Durability = engine.DurabilitySync
	opts.WALSize = 1 << 20
	opts.CompactionSite = engine.CompactLocal
	return opts
}

// runLeaseHandoff drives a Sync-durability workload on compute node 1
// holding the shard's write lease, crashes it mid-stream, and hands the
// shard to compute node 2 via lease takeover + recovery. Every
// acknowledged write must survive the handoff.
func runLeaseHandoff(t *testing.T, seed int64) crashOutcome {
	t.Helper()
	env := sim.NewEnvSeed(seed)
	fab := rdma.NewFabric(env, rdma.EDR100())
	mem := fab.AddNode("mem", 12)
	cn1 := fab.AddNode("compute1", 8)
	cn2 := fab.AddNode("compute2", 8)
	inj := New(fab, 0)

	var out crashOutcome
	env.Run(func() {
		defer fab.Close()
		srv := memnode.NewServer(mem, memnode.DefaultConfig())
		srv.Start()

		opts := leaseOpts()
		ls, err := srv.OpenLease(lease.SlotKey(0, 0))
		if err != nil {
			t.Errorf("OpenLease: %v", err)
			return
		}
		cl1 := lease.NewClient(cn1, srv.Node(), ls.Addr, 0)
		l1, err := cl1.Acquire()
		if err != nil {
			t.Errorf("Acquire: %v", err)
			return
		}
		// The fence word is all the engine needs; the client itself is not
		// part of the write path (and node 1 is about to die holding it).
		cl1.Close()
		bind := engine.Binding{Fence: ls.Addr, FenceWord: l1.Word()}

		db, err := engine.Open(cn1, srv, opts, bind)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		inj.CrashNode(cn1, sim.Time(20*time.Millisecond), 0)

		const writers = 4
		acked := make([]map[string]string, writers)
		wg := sim.NewWaitGroup(env)
		for w := 0; w < writers; w++ {
			w := w
			acked[w] = map[string]string{}
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				s := db.NewSession()
				defer s.Close()
				for i := 0; ; i++ {
					key := fmt.Sprintf("w%d-k%06d", w, i)
					val := fmt.Sprintf("w%d-v%06d", w, i)
					if err := s.Put([]byte(key), []byte(val)); err != nil {
						return
					}
					acked[w][key] = val
				}
			})
		}
		wg.Wait()
		out.memCPU = mem.CPU.Utilization()
		db.Close()

		// Handoff: the new owner deposes the dead holder FIRST (the CAS
		// fences any append the old owner never got acknowledged), then
		// reads the log slot — so recovery observes every acked write.
		cl2 := lease.NewClient(cn2, srv.Node(), ls.Addr, 1)
		defer cl2.Close()
		l2, err := cl2.Takeover()
		if err != nil {
			t.Errorf("Takeover: %v", err)
			return
		}
		if l2.Epoch != l1.Epoch+1 {
			t.Errorf("takeover epoch = %d, want %d", l2.Epoch, l1.Epoch+1)
		}
		bind.FenceWord = l2.Word()
		db2, err := engine.Recover(cn2, srv, opts, bind)
		if err != nil {
			t.Errorf("Recover: %v", err)
			return
		}
		defer db2.Close()
		out.replayed = db2.Stats().WALReplayed.Load()

		s := db2.NewSession()
		defer s.Close()
		crc := crc32.NewIEEE()
		for w := 0; w < writers; w++ {
			keys := make([]string, 0, len(acked[w]))
			for k := range acked[w] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out.acked += len(keys)
			for _, k := range keys {
				got, err := s.Get([]byte(k))
				if err != nil {
					t.Errorf("acked key %q lost across handoff: %v", k, err)
					continue
				}
				if string(got) != acked[w][k] {
					t.Errorf("acked key %q = %q after handoff, want %q", k, got, acked[w][k])
					continue
				}
				fmt.Fprintf(crc, "%s=%s\n", k, got)
			}
		}
		out.digest = crc.Sum32()
	})
	env.Wait()
	out.endVirtNS = int64(env.Now())
	return out
}

// TestLeaseHandoffCrashSync: the lease holder dies mid-workload; a
// secondary compute node takes the lease over and recovers the shard. Zero
// acknowledged writes are lost, and the whole scenario is deterministic —
// two runs with the same seed are byte-identical.
func TestLeaseHandoffCrashSync(t *testing.T) {
	a := runLeaseHandoff(t, 7)
	if a.acked == 0 {
		t.Fatal("no writes acknowledged before the crash; scenario is vacuous")
	}
	if a.replayed == 0 {
		t.Fatal("handoff replayed nothing; the crash cannot have been mid-MemTable")
	}
	t.Logf("acked=%d replayed=%d digest=%08x end=%v", a.acked, a.replayed, a.digest, time.Duration(a.endVirtNS))

	b := runLeaseHandoff(t, 7)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
}

// TestDeposedOwnerFenced is the fencing regression test: a LIVE primary
// (no crash) is deposed by takeover, and its very next synchronous write
// must fail with ErrFenced rather than acknowledge — while every write it
// acknowledged before the takeover is visible to the new owner.
func TestDeposedOwnerFenced(t *testing.T) {
	env := sim.NewEnvSeed(11)
	fab := rdma.NewFabric(env, rdma.EDR100())
	mem := fab.AddNode("mem", 12)
	cn1 := fab.AddNode("compute1", 8)
	cn2 := fab.AddNode("compute2", 8)

	env.Run(func() {
		defer fab.Close()
		srv := memnode.NewServer(mem, memnode.DefaultConfig())
		srv.Start()

		opts := leaseOpts()
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
		bind := engine.Binding{Fence: ls.Addr, FenceWord: l1.Word()}

		db1, err := engine.Open(cn1, srv, opts, bind)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		s1 := db1.NewSession()
		const n = 200
		for i := 0; i < n; i++ {
			if err := s1.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%06d", i))); err != nil {
				t.Fatalf("pre-takeover put %d: %v", i, err)
			}
		}

		// Depose the live primary and recover on node 2.
		cl2 := lease.NewClient(cn2, srv.Node(), ls.Addr, 1)
		defer cl2.Close()
		l2, err := cl2.Takeover()
		if err != nil {
			t.Fatalf("Takeover: %v", err)
		}
		bind.FenceWord = l2.Word()
		db2, err := engine.Recover(cn2, srv, opts, bind)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		defer db2.Close()

		// The deposed owner's post-takeover appends must never acknowledge:
		// its commit fence CAS fails and the write surfaces ErrFenced.
		var fenced bool
		for i := 0; i < 10; i++ {
			err := s1.Put([]byte(fmt.Sprintf("post-%06d", i)), []byte("x"))
			if err == nil {
				continue
			}
			if !errors.Is(err, engine.ErrFenced) {
				t.Fatalf("deposed put error = %v, want ErrFenced", err)
			}
			fenced = true
			break
		}
		if !fenced {
			t.Fatal("deposed owner kept acknowledging writes after takeover")
		}
		s1.Close()
		db1.Close()

		// Everything acknowledged before the takeover is in the new owner.
		s2 := db2.NewSession()
		defer s2.Close()
		for i := 0; i < n; i++ {
			got, err := s2.Get([]byte(fmt.Sprintf("k%06d", i)))
			if err != nil || string(got) != fmt.Sprintf("v%06d", i) {
				t.Fatalf("acked key %d after takeover: %q, %v", i, got, err)
			}
		}
		// The deposed release is refused and leaves the new owner's entry.
		if err := cl1.Release(l1); !errors.Is(err, lease.ErrNotHeld) {
			t.Fatalf("deposed release: %v", err)
		}
	})
	env.Wait()
}

// TestTakeoverDuringNearDataFlush composes what a durable DB now does by
// default with the two features it meets in production: factor-2
// replication and a lease takeover. The primary is deposed while one of
// its flush_build jobs is running on the memory node. Every write it
// acknowledged is readable on the new primary, and the table the stale job
// built is never installed: the deposed primary checks its fence before
// it installs, returns the extent, and the memory node's self-controlled
// area ends where it stood before the job.
func TestTakeoverDuringNearDataFlush(t *testing.T) {
	env := sim.NewEnvSeed(23)
	fab := rdma.NewFabric(env, rdma.EDR100())
	mem1 := fab.AddNode("mem1", 12)
	mem2 := fab.AddNode("mem2", 12)
	cn1 := fab.AddNode("compute1", 8)
	cn2 := fab.AddNode("compute2", 8)

	env.Run(func() {
		defer fab.Close()
		srv1 := memnode.NewServer(mem1, smallMemConfig())
		srv1.Start()
		srv2 := memnode.NewServer(mem2, smallMemConfig())
		srv2.Start()

		opts := replOptions(srv2, repl.IndexOnly)
		ls, err := srv1.OpenLease(lease.SlotKey(0, 0))
		if err != nil {
			t.Fatalf("OpenLease: %v", err)
		}
		cl1 := lease.NewClient(cn1, srv1.Node(), ls.Addr, 0)
		defer cl1.Close()
		l1, err := cl1.Acquire()
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		bind := engine.Binding{Fence: ls.Addr, FenceWord: l1.Word()}
		db1, err := engine.Open(cn1, srv1, opts, bind)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		s1 := db1.NewSession()
		const n = 300 // well short of a MemTable: nothing flushes on its own
		for i := 0; i < n; i++ {
			if err := s1.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%06d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		s1.Close()
		before := srv1.SelfUsed()

		// Retire the MemTable and let its flush_build get going on the
		// memory node: the job has carved its extent, nothing is installed.
		db1.FenceNow()
		env.Sleep(10 * time.Microsecond)
		if srv1.SelfUsed() == before || db1.Stats().Flushes.Load() != 0 {
			t.Fatalf("SelfUsed %d -> %d with %d flushes installed: no flush_build is in flight, the scenario exercises nothing",
				before, srv1.SelfUsed(), db1.Stats().Flushes.Load())
		}

		cl2 := lease.NewClient(cn2, srv1.Node(), ls.Addr, 1)
		defer cl2.Close()
		l2, err := cl2.Takeover()
		if err != nil {
			t.Fatalf("Takeover: %v", err)
		}
		bind.FenceWord = l2.Word()
		db2, err := engine.Recover(cn2, srv1, opts, bind)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		defer db2.Close()

		db1.Close() // drains the deposed primary's flusher
		st := db1.Stats()
		if st.Flushes.Load() != 0 || st.OffloadedFlushes.Load() != 0 {
			t.Errorf("the deposed primary installed %d flushes (%d built near data) after the takeover",
				st.Flushes.Load(), st.OffloadedFlushes.Load())
		}
		if got := srv1.SelfUsed(); got != before {
			t.Errorf("SelfUsed = %d after the stale flush_build, want the %d before it: the job's extent leaked", got, before)
		}
		s2 := db2.NewSession()
		defer s2.Close()
		for i := 0; i < n; i++ {
			got, err := s2.Get([]byte(fmt.Sprintf("k%06d", i)))
			if err != nil || string(got) != fmt.Sprintf("v%06d", i) {
				t.Fatalf("acked key %d on the new primary: %q, %v", i, got, err)
			}
		}
	})
	env.Wait()
	if got := fab.Telemetry().Counter("memnode.invalid_frees").Load(); got != 0 {
		t.Errorf("memnode.invalid_frees = %d, want 0", got)
	}
}
