package faults

import (
	"fmt"
	"hash/crc32"
	"sort"
	"testing"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// crashOutcome is everything one crash-recovery run produces, reduced to
// comparable values so two runs with the same seed can be checked for
// byte-identical behavior.
type crashOutcome struct {
	acked     int    // writes acknowledged before the crash
	replayed  int64  // entries Recover re-applied from the log
	digest    uint32 // crc32 over every acked key=value read back post-recovery
	memCPU    float64
	endVirtNS int64
}

// runCrashRecovery drives a Sync-durability workload on compute node 1,
// crashes it mid-stream, recovers the DB on compute node 2 from the
// remote log, and verifies every acknowledged write survived.
func runCrashRecovery(t *testing.T, seed int64) crashOutcome {
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

		opts := engine.DLSM()
		opts.MemTableSize = 64 << 10
		opts.TableSize = 64 << 10
		opts.EntrySizeHint = 64
		opts.Durability = engine.DurabilitySync
		opts.WALSize = 1 << 20
		// Compute-local compaction and compute-side flushes keep the
		// memory node's CPU provably idle for the whole pre-crash phase:
		// flushes, GC frees and the log's append path are all one-sided.
		opts.CompactionSite = engine.CompactLocal
		opts.FlushAblation = engine.FlushOnCompute

		db, err := engine.Open(cn1, srv, opts, engine.Binding{})
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
					// Sync durability: a nil error means the write's log
					// record is in remote memory — it must survive.
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

		db2, err := engine.Recover(cn2, srv, opts, engine.Binding{})
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
					t.Errorf("acked key %q lost after recovery: %v", k, err)
					continue
				}
				if string(got) != acked[w][k] {
					t.Errorf("acked key %q = %q after recovery, want %q", k, got, acked[w][k])
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

// TestComputeCrashRecoverySync: a compute node dies mid-workload with
// Durability Sync; Recover on a fresh compute node restores 100% of the
// acknowledged writes, the memory node spent zero CPU on the whole write
// path (appends, flushes and GC are one-sided), and the entire scenario
// is deterministic — two runs with the same seed are byte-identical.
func TestComputeCrashRecoverySync(t *testing.T) {
	a := runCrashRecovery(t, 7)
	if a.acked == 0 {
		t.Fatal("no writes acknowledged before the crash; scenario is vacuous")
	}
	if a.replayed == 0 {
		t.Fatal("recovery replayed nothing; the crash cannot have been mid-MemTable")
	}
	if a.memCPU != 0 {
		t.Fatalf("memory node CPU utilization = %v during the write workload, want 0 (one-sided append path)", a.memCPU)
	}
	t.Logf("acked=%d replayed=%d digest=%08x end=%v", a.acked, a.replayed, a.digest, time.Duration(a.endVirtNS))

	b := runCrashRecovery(t, 7)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
}
