package rdma

import (
	"bytes"
	"testing"
	"time"

	"dlsm/internal/sim"
)

// testbed creates a 2-node fabric (compute, memory) with EDR-100 links.
func testbed() (*sim.Env, *Fabric, *Node, *Node) {
	env := sim.NewEnv()
	f := NewFabric(env, EDR100())
	cn := f.AddNode("compute", 24)
	mn := f.AddNode("memory", 12)
	return env, f, cn, mn
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		local := cn.RegisterBuf([]byte("hello, disaggregated world"))
		remote := mn.Register(64)
		dst := cn.Register(64)

		qp := cn.NewQP(mn)
		if err := qp.WriteSync(local, 0, remote.Addr(3), local.Size()); err != nil {
			t.Fatalf("WriteSync: %v", err)
		}
		if err := qp.ReadSync(dst, 0, remote.Addr(3), local.Size()); err != nil {
			t.Fatalf("ReadSync: %v", err)
		}
		if got := dst.Bytes(0, local.Size()); !bytes.Equal(got, []byte("hello, disaggregated world")) {
			t.Fatalf("round trip mismatch: %q", got)
		}
	})
	env.Wait()
}

func TestSmallVsLargeTransferCostGap(t *testing.T) {
	// The motivating observation (§I): per-byte cost of 64B transfers must
	// be >=100x that of 1MB transfers.
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(2 << 20)
		local := cn.Register(2 << 20)
		qp := cn.NewQP(mn)

		t0 := env.Now()
		if err := qp.WriteSync(local, 0, remote.Addr(0), 64); err != nil {
			t.Fatal(err)
		}
		small := env.Now() - t0

		t1 := env.Now()
		if err := qp.WriteSync(local, 0, remote.Addr(0), 1<<20); err != nil {
			t.Fatal(err)
		}
		large := env.Now() - t1

		perByteSmall := float64(small) / 64
		perByteLarge := float64(large) / (1 << 20)
		if gap := perByteSmall / perByteLarge; gap < 100 {
			t.Fatalf("per-byte gap = %.1fx, want >= 100x (small %v, large %v)",
				gap, time.Duration(small), time.Duration(large))
		}
	})
	env.Wait()
}

func TestBandwidthSerializedAcrossQPs(t *testing.T) {
	// Two 1MB writes from different QPs share one link direction: the pair
	// must take ~2x the wire time of one, not complete concurrently.
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(4 << 20)
		local := cn.Register(1 << 20)
		wg := sim.NewWaitGroup(env)
		start := env.Now()
		for i := 0; i < 2; i++ {
			off := i * (1 << 20)
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				qp := cn.NewQP(mn)
				if err := qp.WriteSync(local, 0, remote.Addr(off), 1<<20); err != nil {
					t.Errorf("write: %v", err)
				}
			})
		}
		wg.Wait()
		elapsed := time.Duration(env.Now() - start)
		wire := EDR100().transferTime(1 << 20)
		if elapsed < 2*wire {
			t.Fatalf("2x1MB finished in %v, want >= %v (bandwidth not serialized)", elapsed, 2*wire)
		}
	})
	env.Wait()
}

func TestLatencyPipelinedAcrossQPs(t *testing.T) {
	// Many concurrent small ops should overlap their latencies: 16 parallel
	// 64B writes must finish in far less than 16 * latency.
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(4096)
		wg := sim.NewWaitGroup(env)
		start := env.Now()
		for i := 0; i < 16; i++ {
			off := i * 64
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				qp := cn.NewQP(mn)
				local := cn.Register(64)
				if err := qp.WriteSync(local, 0, remote.Addr(off), 64); err != nil {
					t.Errorf("write: %v", err)
				}
			})
		}
		wg.Wait()
		elapsed := time.Duration(env.Now() - start)
		if elapsed > 4*EDR100().Latency {
			t.Fatalf("16 small writes took %v, want < 4x latency (latency not pipelined)", elapsed)
		}
	})
	env.Wait()
}

func TestAsyncCompletionsFIFO(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(1 << 20)
		local := cn.Register(1 << 20)
		qp := cn.NewQP(mn)
		for i := uint64(0); i < 8; i++ {
			qp.Write(local, 0, remote.Addr(int(i)*4096), 4096, i)
		}
		for i := uint64(0); i < 8; i++ {
			c := qp.WaitCQ()
			if c.Err != nil {
				t.Fatalf("completion %d: %v", i, c.Err)
			}
			if c.Ctx != i {
				t.Fatalf("completion order: got ctx %d, want %d", c.Ctx, i)
			}
		}
	})
	env.Wait()
}

func TestSendRecvEndpoint(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		qp := cn.NewQP(mn)
		if err := qp.SendSync("rpc", []byte("compact L0")); err != nil {
			t.Fatal(err)
		}
		msg, ok := mn.Endpoint("rpc").Recv()
		if !ok {
			t.Fatal("endpoint closed")
		}
		if string(msg.Payload) != "compact L0" || msg.From != cn.ID {
			t.Fatalf("bad message: %+v", msg)
		}
	})
	env.Wait()
}

func TestSendPayloadCopiedAtPost(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		qp := cn.NewQP(mn)
		buf := []byte("original")
		qp.Send("rpc", buf, 0)
		copy(buf, "CLOBBER!") // caller reuses its buffer immediately
		msg, _ := mn.Endpoint("rpc").Recv()
		if string(msg.Payload) != "original" {
			t.Fatalf("payload not copied at post: %q", msg.Payload)
		}
		qp.WaitCQ()
	})
	env.Wait()
}

func TestWriteWithImmediate(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(128)
		local := cn.RegisterBuf([]byte("reply-payload"))
		qp := cn.NewQP(mn)
		qp.WriteImm(local, 0, remote.Addr(0), local.Size(), 0xBEEF, 1)
		msg, ok := mn.ImmQueue().Recv()
		if !ok || msg.Imm != 0xBEEF {
			t.Fatalf("imm notification: ok=%v msg=%+v", ok, msg)
		}
		// The payload must be visible at the target when the imm arrives.
		if got := string(remote.Bytes(0, 13)); got != "reply-payload" {
			t.Fatalf("payload not visible with imm: %q", got)
		}
		qp.WaitCQ()
	})
	env.Wait()
}

func TestFetchAdd(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(8)
		qp := cn.NewQP(mn)
		old, err := qp.FetchAddSync(remote.Addr(0), 5)
		if err != nil || old != 0 {
			t.Fatalf("first FAA: old=%d err=%v", old, err)
		}
		old, err = qp.FetchAddSync(remote.Addr(0), 7)
		if err != nil || old != 5 {
			t.Fatalf("second FAA: old=%d err=%v", old, err)
		}
	})
	env.Wait()
}

func TestCompareSwap(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(8)
		qp := cn.NewQP(mn)
		old, swapped, err := qp.CompareSwapSync(remote.Addr(0), 0, 42)
		if err != nil || !swapped || old != 0 {
			t.Fatalf("CAS(0->42): old=%d swapped=%v err=%v", old, swapped, err)
		}
		old, swapped, err = qp.CompareSwapSync(remote.Addr(0), 0, 99)
		if err != nil || swapped || old != 42 {
			t.Fatalf("CAS(0->99) should fail: old=%d swapped=%v err=%v", old, swapped, err)
		}
	})
	env.Wait()
}

func TestAwaitByteWakesAfterRemoteWrite(t *testing.T) {
	// Models the general-purpose RPC reply path: requester polls a flag
	// that the responder sets via one-sided write.
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		replyBuf := cn.Register(64) // requester-side reply buffer
		payload := mn.RegisterBuf(append(bytes.Repeat([]byte{7}, 63), 1))

		env.Go(func() { // responder
			env.Sleep(10 * time.Microsecond)
			qp := mn.NewQP(cn)
			if err := qp.WriteSync(payload, 0, replyBuf.Addr(0), 64); err != nil {
				t.Errorf("responder write: %v", err)
			}
		})

		replyBuf.AwaitByte(63, 1)
		woke := time.Duration(env.Now())
		if woke < 10*time.Microsecond+EDR100().Latency {
			t.Fatalf("poller woke at %v, before the write could complete", woke)
		}
		if replyBuf.Bytes(0, 1)[0] != 7 {
			t.Fatal("payload bytes not visible when flag observed")
		}
	})
	env.Wait()
}

func TestInvalidRKeyFails(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		local := cn.Register(8)
		qp := cn.NewQP(mn)
		err := qp.WriteSync(local, 0, RemoteAddr{Node: mn.ID, RKey: 9999, Off: 0}, 8)
		if err == nil {
			t.Fatal("write with bogus rkey succeeded")
		}
	})
	env.Wait()
}

func TestDeregisteredRegionInaccessible(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		local := cn.Register(8)
		remote := mn.Register(8)
		mn.Deregister(remote)
		qp := cn.NewQP(mn)
		if err := qp.WriteSync(local, 0, remote.Addr(0), 8); err == nil {
			t.Fatal("write to deregistered region succeeded")
		}
	})
	env.Wait()
}

func TestReadConsumesReverseBandwidth(t *testing.T) {
	// A large READ consumes memory->compute bandwidth; a concurrent large
	// WRITE (compute->memory) should not contend with it.
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(2 << 20)
		localR := cn.Register(1 << 20)
		localW := cn.Register(1 << 20)
		wg := sim.NewWaitGroup(env)
		start := env.Now()
		wg.Add(2)
		env.Go(func() {
			defer wg.Done()
			qp := cn.NewQP(mn)
			qp.ReadSync(localR, 0, remote.Addr(0), 1<<20)
		})
		env.Go(func() {
			defer wg.Done()
			qp := cn.NewQP(mn)
			qp.WriteSync(localW, 0, remote.Addr(1<<20), 1<<20)
		})
		wg.Wait()
		elapsed := time.Duration(env.Now() - start)
		wire := EDR100().transferTime(1 << 20)
		// Full duplex: both finish in ~one wire time, not two.
		if elapsed > wire+10*EDR100().Latency {
			t.Fatalf("read+write took %v, want ~%v (directions should not contend)", elapsed, wire)
		}
	})
	env.Wait()
}

func TestLinkStatsResolveToSameLink(t *testing.T) {
	// Regression: (a,b) and (b,a) used to resolve to two independent
	// directed link objects, so querying stats or setting parameters in
	// the "wrong" order created a second, empty link for the same pair.
	// A link is full duplex: both argument orders must hit one object,
	// with stats reported per direction.
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		local := cn.Register(1 << 20)
		remote := mn.Register(1 << 20)

		// Query stats in the reverse order BEFORE any traffic: this must
		// not create a link distinct from the one traffic will use.
		if b, o := f.LinkStats(mn, cn); b != 0 || o != 0 {
			t.Fatalf("pristine link has stats %d/%d", b, o)
		}

		qp := cn.NewQP(mn)
		if err := qp.WriteSync(local, 0, remote.Addr(0), 4096); err != nil {
			t.Fatal(err)
		}
		if err := qp.ReadSync(local, 0, remote.Addr(0), 1024); err != nil {
			t.Fatal(err)
		}

		sentB, sentOps := f.LinkStats(cn, mn)
		recvB, recvOps := f.LinkStats(mn, cn)
		if sentB != 4096 || recvB != 1024 {
			t.Fatalf("directional stats: cn->mn %d bytes, mn->cn %d bytes; want 4096/1024", sentB, recvB)
		}

		// Pair totals are symmetric and cover both directions.
		pb, po := f.PairStats(cn, mn)
		pb2, po2 := f.PairStats(mn, cn)
		if pb != pb2 || po != po2 {
			t.Fatalf("PairStats asymmetric: (%d,%d) vs (%d,%d)", pb, po, pb2, po2)
		}
		if pb != sentB+recvB || po != sentOps+recvOps {
			t.Fatalf("PairStats %d/%d != directional sums %d/%d", pb, po, sentB+recvB, sentOps+recvOps)
		}

		// One pair, one link object.
		f.mu.Lock()
		nlinks := len(f.links)
		f.mu.Unlock()
		if nlinks != 1 {
			t.Fatalf("fabric holds %d link objects for one node pair, want 1", nlinks)
		}
	})
	env.Wait()
}

func TestSetLinkParamsEitherArgumentOrder(t *testing.T) {
	// Parameters set via (b,a) must govern (a,b) traffic: one full-duplex
	// link per pair.
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		local := cn.Register(64)
		remote := mn.Register(64)

		slow := EDR100()
		slow.Latency = 100 * time.Microsecond
		f.SetLinkParams(mn, cn, slow) // reversed order on purpose

		qp := cn.NewQP(mn)
		t0 := env.Now()
		if err := qp.WriteSync(local, 0, remote.Addr(0), 64); err != nil {
			t.Fatal(err)
		}
		if d := time.Duration(env.Now() - t0); d < slow.Latency {
			t.Fatalf("write completed in %v; params set via reversed order were ignored (want >= %v)", d, slow.Latency)
		}
	})
	env.Wait()
}

func TestLinkTelemetry(t *testing.T) {
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		local := cn.Register(1 << 20)
		remote := mn.Register(1 << 20)
		qp := cn.NewQP(mn)
		if err := qp.WriteSync(local, 0, remote.Addr(0), 8192); err != nil {
			t.Fatal(err)
		}
		snap := f.Telemetry().Snapshot()
		if got := snap.Counters["rdma.link.compute->memory.bytes"]; got != 8192 {
			t.Fatalf("telemetry bytes = %d, want 8192 (counters: %v)", got, snap.Counters)
		}
		if got := snap.Counters["rdma.link.compute->memory.ops"]; got != 1 {
			t.Fatalf("telemetry ops = %d, want 1", got)
		}
		// The synchronous write has completed: no work request in flight.
		if got := snap.Gauges["rdma.link.compute->memory.queue_depth"]; got != 0 {
			t.Fatalf("queue depth = %d after completion, want 0", got)
		}
	})
	env.Wait()
}

// A posted verb and its completion park the poster on the CQ and the QP
// worker on the send queue; neither may cost the host an allocation, or a
// scan cannot afford smaller fetches (EXPERIMENTS.md "-fig scan").
func TestReadSyncAllocatesNothing(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	env, f, cn, mn := testbed()
	env.Run(func() {
		defer f.Close()
		remote := mn.Register(4096)
		local := cn.Register(4096)
		qp := cn.NewQP(mn)
		n := testing.AllocsPerRun(200, func() {
			if err := qp.ReadSync(local, 0, remote.Addr(0), 420); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("QP.ReadSync: %.2f allocs per round trip, want 0", n)
		}
	})
	env.Wait()
}
