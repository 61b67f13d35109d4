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
	"dlsm/internal/repl"
	"dlsm/internal/sim"
)

// smallMemConfig shrinks the memory-node regions to the scale of these
// workloads (a few hundred KB of data) so the scenarios stay fast.
func smallMemConfig() memnode.Config {
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 64 << 20
	cfg.SelfRegionSize = 16 << 20
	cfg.LogRegionSize = 8 << 20
	return cfg
}

// failoverOutcome reduces one memnode-crash failover run to comparable
// values (the crashOutcome pattern) for same-seed determinism checks.
type failoverOutcome struct {
	acked     int    // writes acknowledged before the primary memnode died
	mirrored  int64  // SSTable extents replicated before the crash
	replayed  int64  // entries the promotion replayed from the replica ring
	digest    uint32 // crc32 over every acked key=value read back post-promotion
	endVirtNS int64
}

// replOptions is the shared engine configuration of the replication
// scenarios: quorum-acked factor-2 replication onto srv2 in the given
// SSTable transfer mode.
func replOptions(replica *memnode.Server, mode repl.Mode) engine.Options {
	opts := engine.DLSM()
	opts.MemTableSize = 64 << 10
	opts.TableSize = 64 << 10
	opts.EntrySizeHint = 64
	opts.Durability = engine.DurabilitySync
	opts.WALSize = 1 << 20
	opts.CompactionSite = engine.CompactLocal
	opts.Replica = replica
	opts.ReplAck = repl.AckQuorum
	opts.ReplMode = mode
	return opts
}

// runWriters drives 4 write sessions until their Puts start failing and
// returns every acknowledged key=value pair. Under quorum ack a nil error
// means the record is in BOTH memory nodes' rings — it must survive the
// loss of either one.
func runWriters(env *sim.Env, db *engine.DB) map[string]string {
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
	all := map[string]string{}
	for w := range acked {
		for k, v := range acked[w] {
			all[k] = v
		}
	}
	return all
}

// verifyAcked reads every acknowledged write back through db and folds the
// results into a digest; a missing or wrong value fails the test.
func verifyAcked(t *testing.T, db *engine.DB, acked map[string]string) uint32 {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	crc := crc32.NewIEEE()
	for _, k := range keys {
		got, err := s.Get([]byte(k))
		if err != nil {
			t.Errorf("acked key %q lost in failover: %v", k, err)
			continue
		}
		if string(got) != acked[k] {
			t.Errorf("acked key %q = %q after failover, want %q", k, got, acked[k])
			continue
		}
		fmt.Fprintf(crc, "%s=%s\n", k, got)
	}
	return crc.Sum32()
}

// runMemnodeFailover drives a quorum-replicated Sync workload, crashes the
// PRIMARY MEMORY NODE mid-stream, and promotes the replica: Recover on a
// fresh compute node pointed at the replica memory node, replication off.
// Every write acknowledged before the crash must be readable afterwards.
func runMemnodeFailover(t *testing.T, seed int64, mode repl.Mode) failoverOutcome {
	t.Helper()
	env := sim.NewEnvSeed(seed)
	fab := rdma.NewFabric(env, rdma.EDR100())
	mem1 := fab.AddNode("mem1", 12)
	mem2 := fab.AddNode("mem2", 12)
	cn1 := fab.AddNode("compute1", 8)
	cn2 := fab.AddNode("compute2", 8)
	inj := New(fab, 0)

	var out failoverOutcome
	env.Run(func() {
		defer fab.Close()
		srv1 := memnode.NewServer(mem1, smallMemConfig())
		srv1.Start()
		srv2 := memnode.NewServer(mem2, smallMemConfig())
		srv2.Start()

		opts := replOptions(srv2, mode)
		db, err := engine.Open(cn1, srv1, opts, engine.Binding{})
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		inj.CrashNode(mem1, sim.Time(20*time.Millisecond), 0)

		acked := runWriters(env, db)
		out.acked = len(acked)
		out.mirrored = fab.Telemetry().Counter("repl.tables").Load()
		db.Close()

		// Promote: the replica memory node holds the mirrored WAL ring, the
		// checkpoint slot pair and every acked SSTable extent under the same
		// slot key the primary used, so plain Recover pointed at it adopts
		// everything. Replication is off on the promoted side (its peer died).
		optsP := opts
		optsP.Replica, optsP.ReplAck, optsP.ReplMode = nil, repl.AckPrimary, repl.IndexOnly
		db2, err := engine.Recover(cn2, srv2, optsP, engine.Binding{})
		if err != nil {
			t.Errorf("promoting replica: %v", err)
			return
		}
		defer db2.Close()
		out.replayed = db2.Stats().WALReplayed.Load()
		out.digest = verifyAcked(t, db2, acked)
	})
	env.Wait()
	out.endVirtNS = int64(env.Now())
	return out
}

// testMemnodeFailover runs the scenario in one transfer mode and checks it
// is non-vacuous, zero-loss and deterministic per seed.
func testMemnodeFailover(t *testing.T, mode repl.Mode) {
	a := runMemnodeFailover(t, 11, mode)
	if a.acked == 0 {
		t.Fatal("no writes acknowledged before the crash; scenario is vacuous")
	}
	if a.mirrored == 0 {
		t.Fatal("no SSTable extents replicated before the crash; the failover never exercised the table mirror")
	}
	if a.replayed == 0 {
		t.Fatal("promotion replayed nothing; the crash cannot have been mid-MemTable")
	}
	t.Logf("%v: acked=%d mirrored=%d replayed=%d digest=%08x end=%v",
		mode, a.acked, a.mirrored, a.replayed, a.digest, time.Duration(a.endVirtNS))

	b := runMemnodeFailover(t, 11, mode)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
}

// TestMemnodeFailoverIndexOnly: zero-loss promotion with index-only SSTable
// replication (the primary clones extents to the replica).
func TestMemnodeFailoverIndexOnly(t *testing.T) {
	testMemnodeFailover(t, repl.IndexOnly)
}

// TestMemnodeFailoverLogReplay: zero-loss promotion with log-replay SSTable
// replication (the compute node re-writes extents to the replica).
func TestMemnodeFailoverLogReplay(t *testing.T) {
	testMemnodeFailover(t, repl.LogReplay)
}

// tornOutcome reduces one torn-publish run for determinism comparison.
type tornOutcome struct {
	acked     int
	tagDelta  uint64 // replica publication tag minus primary's after the crash
	pick      int    // repl.PickSlotPair verdict on the surviving pair
	replayed  int64
	digest    uint32
	endVirtNS int64
}

// readHeader fetches one slot's 64-byte header from compute node cn.
func readHeader(t *testing.T, cn *rdma.Node, srv *memnode.Server, key uint64) []byte {
	t.Helper()
	slot, ok := srv.FindLog(key)
	if !ok {
		t.Fatalf("log slot %#x missing on the memory node", key)
	}
	mr := cn.Register(64)
	defer cn.Deregister(mr)
	qp := cn.NewQP(srv.Node())
	defer qp.Close()
	if err := qp.ReadSync(mr, 0, slot.Addr, 64); err != nil {
		t.Fatalf("reading slot header: %v", err)
	}
	return append([]byte(nil), mr.Bytes(0, 64)...)
}

// runTornPublish crashes the PUBLISHING COMPUTE NODE between the two header
// flips of a replicated checkpoint publish (Options.ReplTornHook fires after
// the replica header lands, before the primary's). The surviving pair must
// be detectably torn — replica exactly one publication tag ahead —
// PickSlotPair must choose the replica side, and recovering from it must
// observe every acknowledged write.
func runTornPublish(t *testing.T, seed int64) tornOutcome {
	t.Helper()
	env := sim.NewEnvSeed(seed)
	fab := rdma.NewFabric(env, rdma.EDR100())
	mem1 := fab.AddNode("mem1", 12)
	mem2 := fab.AddNode("mem2", 12)
	cn1 := fab.AddNode("compute1", 8)
	cn2 := fab.AddNode("compute2", 8)

	var out tornOutcome
	env.Run(func() {
		defer fab.Close()
		srv1 := memnode.NewServer(mem1, smallMemConfig())
		srv1.Start()
		srv2 := memnode.NewServer(mem2, smallMemConfig())
		srv2.Start()

		opts := replOptions(srv2, repl.IndexOnly)
		publishes := 0
		opts.ReplTornHook = func() {
			publishes++
			if publishes == 3 {
				// The replica header for publish #3 just landed; dying here
				// leaves the primary header one publication behind.
				cn1.Crash()
			}
		}
		db, err := engine.Open(cn1, srv1, opts, engine.Binding{})
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		acked := runWriters(env, db)
		out.acked = len(acked)
		db.Close()

		key := engine.Binding{}.SlotKey()
		praw := readHeader(t, cn2, srv1, key)
		rraw := readHeader(t, cn2, srv2, key)
		ph, err := repl.DecodeReplicaSlot(praw)
		if err != nil {
			t.Errorf("primary header: %v", err)
			return
		}
		rh, err := repl.DecodeReplicaSlot(rraw)
		if err != nil {
			t.Errorf("replica header: %v", err)
			return
		}
		if rh.Epoch != ph.Epoch {
			t.Errorf("slot epochs diverged: primary %d, replica %d", ph.Epoch, rh.Epoch)
		}
		out.tagDelta = rh.Tag - ph.Tag
		out.pick = repl.PickSlotPair(ph, rh)

		// Recover from the side the arbitration picked (the replica).
		optsP := opts
		optsP.Replica, optsP.ReplAck, optsP.ReplMode = nil, repl.AckPrimary, repl.IndexOnly
		optsP.ReplTornHook = nil
		db2, err := engine.Recover(cn2, srv2, optsP, engine.Binding{})
		if err != nil {
			t.Errorf("recovering from the torn pair's replica side: %v", err)
			return
		}
		defer db2.Close()
		out.replayed = db2.Stats().WALReplayed.Load()
		out.digest = verifyAcked(t, db2, acked)
	})
	env.Wait()
	out.endVirtNS = int64(env.Now())
	return out
}

// TestTornCheckpointPublish: a compute crash between the two header flips of
// a replicated publish leaves the pair torn by exactly one tag; PickSlotPair
// resolves it to the replica side and recovery from there loses nothing.
// Deterministic per seed.
func TestTornCheckpointPublish(t *testing.T) {
	a := runTornPublish(t, 3)
	if a.acked == 0 {
		t.Fatal("no writes acknowledged before the torn publish; scenario is vacuous")
	}
	if a.tagDelta != 1 {
		t.Fatalf("replica tag is %d ahead of primary, want exactly 1 (torn dual-flip)", a.tagDelta)
	}
	if a.pick != 1 {
		t.Fatalf("PickSlotPair chose side %d, want 1 (the replica, one publish ahead)", a.pick)
	}
	t.Logf("acked=%d tagDelta=%d replayed=%d digest=%08x end=%v",
		a.acked, a.tagDelta, a.replayed, a.digest, time.Duration(a.endVirtNS))

	b := runTornPublish(t, 3)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
}
