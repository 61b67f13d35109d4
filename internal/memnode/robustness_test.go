package memnode

import (
	"strings"
	"testing"

	"dlsm/internal/keys"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

func compactArgsFor(inputs []*sstable.Meta, jobID uint64) *CompactArgs {
	return &CompactArgs{
		Inputs:           inputs,
		SmallestSnapshot: uint64(keys.MaxSeq),
		DropTombstones:   true,
		Subcompactions:   2,
		TableSize:        1 << 20,
		Format:           sstable.ByteAddr,
		BitsPerKey:       10,
		JobID:            jobID,
	}
}

func TestCompactJobDedupe(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		t1 := buildRemoteTable(t, srv, 1, 0, 500, 1)
		args := EncodeCompactArgs(compactArgsFor([]*sstable.Meta{t1}, 77))

		cli := rpc.NewClient(cn, srv.Node(), rpc.NotifierFor(cn), 8<<20)
		reply1, err := cli.CallLarge("compact", args)
		if err != nil {
			t.Fatal(err)
		}
		used := srv.SelfUsed()

		// Duplicate delivery of the same job id: the merge must not run
		// again — same reply bytes, no new output allocations.
		reply2, err := cli.CallLarge("compact", args)
		if err != nil {
			t.Fatal(err)
		}
		if string(reply1) != string(reply2) {
			t.Fatal("duplicate delivery returned a different reply")
		}
		if srv.SelfUsed() != used {
			t.Fatalf("duplicate delivery allocated outputs: %d -> %d", used, srv.SelfUsed())
		}
	})
	env.Wait()
	if got := fab.Telemetry().Counter("memnode.jobs.deduped").Load(); got != 1 {
		t.Errorf("memnode.jobs.deduped = %d, want 1", got)
	}
}

func TestCompactJobDedupeParksConcurrentDuplicate(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		t1 := buildRemoteTable(t, srv, 1, 0, 5_000, 1)
		args := EncodeCompactArgs(compactArgsFor([]*sstable.Meta{t1}, 42))

		type res struct {
			reply []byte
			err   error
		}
		results := make([]res, 2)
		wg := sim.NewWaitGroup(env)
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				cli := rpc.NewClient(cn, srv.Node(), rpc.NotifierFor(cn), 8<<20)
				r, err := cli.CallLarge("compact", args)
				results[i] = res{r, err}
			})
		}
		wg.Wait()
		for i, r := range results {
			if r.err != nil {
				t.Fatalf("call %d: %v", i, r.err)
			}
		}
		if string(results[0].reply) != string(results[1].reply) {
			t.Fatal("concurrent duplicates saw different replies")
		}
	})
	env.Wait()
	if got := fab.Telemetry().Counter("memnode.jobs.deduped").Load(); got != 1 {
		t.Errorf("memnode.jobs.deduped = %d, want 1", got)
	}
}

func TestCompactCancelFreesUnclaimedOutputs(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		t1 := buildRemoteTable(t, srv, 1, 0, 500, 1)
		args := EncodeCompactArgs(compactArgsFor([]*sstable.Meta{t1}, 9))

		cli := rpc.NewClient(cn, srv.Node(), rpc.NotifierFor(cn), 8<<20)
		if _, err := cli.CallLarge("compact", args); err != nil {
			t.Fatal(err)
		}
		if srv.SelfUsed() == 0 {
			t.Fatal("no outputs allocated")
		}
		// The requester gave up (fell back to local compaction): cancel
		// must return the outputs to the self-controlled allocator.
		cancel := make([]byte, 8)
		putU64(cancel, 0, 9)
		if _, err := cli.Call("compact_cancel", cancel); err != nil {
			t.Fatal(err)
		}
		if srv.SelfUsed() != 0 {
			t.Fatalf("SelfUsed = %d after cancel", srv.SelfUsed())
		}
		// A late duplicate delivery of the canceled job must not rerun the
		// merge: the tombstone answers with the canceled error.
		if _, err := cli.CallLarge("compact", args); err == nil ||
			!strings.Contains(err.Error(), "canceled") {
			t.Fatalf("late duplicate after cancel: err = %v, want canceled", err)
		}
		if srv.SelfUsed() != 0 {
			t.Fatal("late duplicate reallocated outputs")
		}
	})
	env.Wait()
	if got := fab.Telemetry().Counter("memnode.jobs.canceled").Load(); got != 1 {
		t.Errorf("memnode.jobs.canceled = %d, want 1", got)
	}
}

func TestServiceStopDropsRequestsRestartServes(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		srv.StopService()
		if srv.ServiceRunning() {
			t.Fatal("service still running after StopService")
		}
		cli := rpc.NewClient(cn, srv.Node(), nil, 1<<20)
		p := rpc.Policy{Timeout: 500 * sim.Duration(1000), MaxAttempts: 1} // 500us
		if _, err := cli.CallPolicy("free", EncodeFrees(0, nil), p); err == nil {
			t.Fatal("call succeeded while service stopped")
		}
		srv.RestartService()
		if _, err := cli.CallPolicy("free", EncodeFrees(0, nil), p); err != nil {
			t.Fatalf("call after restart: %v", err)
		}
	})
	env.Wait()
}
