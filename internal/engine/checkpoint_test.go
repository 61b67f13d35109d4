package engine

import (
	"testing"

	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

func TestCheckpointRebuildAfterComputeLoss(t *testing.T) {
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn1 := fab.AddNode("compute-1", 24)
	cn2 := fab.AddNode("compute-2", 24) // replacement compute node
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()

	env.Run(func() {
		const n = 3000
		db := mustOpen(cn1, srv, smallOpts())
		s := db.NewSession()
		for i := 0; i < n; i++ {
			s.Put(key(i), value(i))
		}
		db.Flush() // §VIII: the index is flushed at the checkpoint boundary
		cp := db.Checkpoint()
		horizon := db.CurrentSeq()
		s.Close()
		db.Close() // "crash": the compute node goes away; remote memory survives

		// A fresh compute node rebuilds the index from the checkpoint.
		db2, err := OpenFromCheckpoint(cn2, srv, smallOpts(), Binding{}, cp)
		if err != nil {
			t.Fatal(err)
		}
		if db2.CurrentSeq() != horizon {
			t.Fatalf("sequence horizon = %d, want %d", db2.CurrentSeq(), horizon)
		}
		s2 := db2.NewSession()
		for i := 0; i < n; i += 7 {
			v, err := s2.Get(key(i))
			if err != nil {
				t.Fatalf("recovered Get(%s): %v", key(i), err)
			}
			if string(v) != string(value(i)) {
				t.Fatalf("recovered Get(%s) has wrong value", key(i))
			}
		}
		// New writes get fresh sequence numbers and work normally.
		s2.Put([]byte("post-recovery"), []byte("ok"))
		if v, err := s2.Get([]byte("post-recovery")); err != nil || string(v) != "ok" {
			t.Fatalf("post-recovery write: %q, %v", v, err)
		}
		if db2.CurrentSeq() <= horizon {
			t.Fatal("new writes did not advance past the checkpoint horizon")
		}
		// Overwrites of recovered keys win over checkpointed versions.
		s2.Put(key(0), []byte("newer"))
		if v, _ := s2.Get(key(0)); string(v) != "newer" {
			t.Fatalf("overwrite after recovery lost: %q", v)
		}
		s2.Close()
		db2.Close()
		fab.Close()
	})
	env.Wait()
}

func TestCheckpointDecodeErrors(t *testing.T) {
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	srv := memnode.NewServer(mn, memnode.DefaultConfig())
	srv.Start()
	env.Run(func() {
		for _, junk := range [][]byte{nil, {1, 2, 3}, make([]byte, 9)} {
			if _, err := OpenFromCheckpoint(cn, srv, smallOpts(), Binding{}, junk); err == nil {
				t.Fatalf("OpenFromCheckpoint(%d junk bytes) succeeded", len(junk))
			}
		}
		fab.Close()
	})
	env.Wait()
}

func TestCheckpointCoversCompactedTree(t *testing.T) {
	harness(t, smallOpts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 6000; i++ {
			s.Put(key(i), value(i))
		}
		db.Flush()
		db.WaitForCompactions()
		cp := db.Checkpoint()
		if len(cp) < 100 {
			t.Fatalf("checkpoint suspiciously small: %d bytes", len(cp))
		}
		files, seq, err := decodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if seq == 0 {
			t.Fatal("checkpoint lost the sequence horizon")
		}
		total := 0
		deep := 0
		for level, metas := range files {
			total += len(metas)
			if level >= 1 {
				deep += len(metas)
			}
		}
		if total == 0 || deep == 0 {
			t.Fatalf("checkpoint has %d tables (%d below L0); compaction should have built levels", total, deep)
		}
		// Every meta must round-trip with a usable index.
		for _, metas := range files {
			for _, m := range metas {
				if m.Count > 0 && m.Index.NumRecords() == 0 {
					t.Fatalf("table %d lost its index in the checkpoint", m.ID)
				}
			}
		}
	})
}
