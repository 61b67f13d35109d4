package wal

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// windowRun is what one concurrent-stager run of the commit pipeline
// produced, as seen from outside the log.
type windowRun struct {
	appends, doorbells int64
	maxGroup           int64 // most records one doorbell carried
	maxInflight        int64 // most doorbells seen in flight at once
	acks               []uint64
}

// stagerRun describes one concurrent-stager scenario.
type stagerRun struct {
	key                uint64
	slotSize           int64
	writers, perWriter int
	perWrite           bool
	mirror             bool // sync replica slot (same size, key+1000) on the same host
	staging            int  // staging ring bytes; 0 keeps stagingSize
	// atAck runs in the stager right after its Commit returned; settled
	// runs once every writer is done, before Close.
	atAck   func(tw *testWAL, cn *rdma.Node, lsn, seq uint64)
	settled func(tw *testWAL, srv *logHost)
}

// run drives the scenario's sync stagers through a fresh log, checking at
// every acknowledgement that the durable frontier covers the record and
// never moved backwards, and after Close that the window drained.
func (sr stagerRun) run(t *testing.T) windowRun {
	t.Helper()
	var out windowRun
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		var replica *ReplicaConfig
		if sr.mirror {
			rslot, err := srv.OpenLog(sr.key+1000, sr.slotSize)
			if err != nil {
				t.Fatalf("OpenLog(replica): %v", err)
			}
			replica = &ReplicaConfig{Host: srv.Node(), Slot: rslot.Addr, Sync: true}
		}
		tw := openMirroredTestWAL(t, env, cn, srv, sr.key, sr.slotSize, sr.perWrite, replica)
		if sr.staging != 0 {
			tw.l.stage.size = sr.staging // nothing staged yet
		}
		var seqCtr atomic.Uint64
		var frontier uint64
		sample := func() {
			if n := tw.m.Inflight.Load(); n > out.maxInflight {
				out.maxInflight = n
			}
		}
		wg := sim.NewWaitGroup(env)
		for w := 0; w < sr.writers; w++ {
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				for i := 0; i < sr.perWriter; i++ {
					seq := seqCtr.Add(1)
					tok, err := tw.l.Stage(seq, 1, func(int) (byte, []byte, []byte) {
						return 1, []byte(fmt.Sprintf("k%06d", seq)), []byte(fmt.Sprintf("value-payload-%06d", seq))
					})
					if err != nil {
						t.Errorf("Stage: %v", err)
						return
					}
					sample()
					if err := tw.l.Commit(tok, true); err != nil {
						t.Errorf("Commit: %v", err)
						return
					}
					sample()
					tw.l.mu.Lock()
					durable := tw.l.durableLSN
					tw.l.mu.Unlock()
					if durable < tok.lsn || durable < frontier {
						t.Errorf("ack of lsn %d: durable frontier %d (was %d)", tok.lsn, durable, frontier)
					}
					frontier = durable
					out.acks = append(out.acks, tok.lsn)
					tw.noteAcked(seq)
					if sr.atAck != nil {
						sr.atAck(tw, cn, tok.lsn, seq)
					}
				}
			})
		}
		wg.Wait()
		if sr.settled != nil {
			sr.settled(tw, srv)
		}
		out.appends, out.doorbells = tw.m.Appends.Load(), tw.m.Doorbells.Load()
		out.maxGroup = tw.m.GroupRecords.Snapshot().Max
		tw.l.Close()
		if n := tw.m.Inflight.Load(); n != 0 || len(tw.l.inflight) != 0 || tw.l.stage.used != 0 {
			t.Errorf("after Close: gauge %d, %d doorbells in flight, %d staging bytes held", n, len(tw.l.inflight), tw.l.stage.used)
		}
	})
	return out
}

// TestWindowKeepsDoorbellsInFlight: with as many sync writers as the
// window has slots nobody waits for anybody — every record leaves alone,
// several doorbells are in flight at once, writers wake strictly in LSN
// order, and an acknowledged record is already readable in the remote
// ring — with a sync mirror, in the replica ring too (read back one-sided,
// then decoded).
func TestWindowKeepsDoorbellsInFlight(t *testing.T) {
	const writers, perWriter = commitWindow, 25
	for _, mirror := range []bool{false, true} {
		r := stagerRun{key: 80, slotSize: 256 << 10, writers: writers, perWriter: perWriter, mirror: mirror,
			atAck: func(tw *testWAL, cn *rdma.Node, lsn, seq uint64) {
				l := tw.l
				l.mu.Lock()
				rec := l.live[l.liveIdx(lsn)]
				l.mu.Unlock()
				slots := []rdma.RemoteAddr{l.cfg.Slot}
				if mirror {
					slots = append(slots, l.cfg.Replica.Slot)
				}
				qp := cn.NewQP(l.cfg.Host)
				defer qp.Close()
				mr := cn.Register(rec.size)
				defer cn.Deregister(mr)
				for _, slot := range slots {
					if err := qp.ReadSync(mr, 0, slot.Add(l.ringBase+rec.off), rec.size); err != nil {
						t.Errorf("read back lsn %d: %v", lsn, err)
						return
					}
					got, _, ok := parseRecord(mr.Bytes(0, rec.size), l.epoch, lsn)
					if !ok || got.SeqLo != seq {
						t.Errorf("lsn %d acknowledged, but the ring at %v holds %+v (ok=%v)", lsn, slot, got, ok)
					}
				}
			}}.run(t)
		if r.maxInflight < 2 {
			t.Fatalf("mirror=%v: at most %d doorbell in flight with %d concurrent writers", mirror, r.maxInflight, writers)
		}
		if r.appends != writers*perWriter || (!mirror && r.doorbells != r.appends) {
			t.Fatalf("%d doorbells for %d appends: an open window must never hold a record back", r.doorbells, r.appends)
		}
		for i := 1; i < len(r.acks); i++ {
			if r.acks[i] <= r.acks[i-1] {
				t.Fatalf("mirror=%v: ack %d is lsn %d, after lsn %d", mirror, i, r.acks[i], r.acks[i-1])
			}
		}
	}
}

// TestGroupCommitCoalescing: records coalesce exactly when something is
// full. Four windows' worth of sync writers keep the window full, so the
// records waiting behind it leave as one run; a staging ring far smaller
// than the burst forces the same through backpressure, across many laps of
// both rings. Per-write mode is the stop-and-wait ablation: one record per
// doorbell, one doorbell in flight.
func TestGroupCommitCoalescing(t *testing.T) {
	const writers, perWriter = 4 * commitWindow, 25
	full := stagerRun{key: 5, slotSize: 256 << 10, writers: writers, perWriter: perWriter}.run(t)
	if full.appends != writers*perWriter {
		t.Fatalf("appends=%d want %d", full.appends, writers*perWriter)
	}
	if full.doorbells >= full.appends || full.maxGroup < 2 {
		t.Fatalf("%d writers over a %d-slot window did not coalesce: %d doorbells for %d appends (max run %d)",
			writers, commitWindow, full.doorbells, full.appends, full.maxGroup)
	}
	if full.maxInflight > commitWindow {
		t.Fatalf("%d doorbells in flight, window is %d", full.maxInflight, commitWindow)
	}

	pw := stagerRun{key: 6, slotSize: 256 << 10, writers: 16, perWriter: perWriter, perWrite: true}.run(t)
	if pw.doorbells != pw.appends || pw.maxGroup != 1 || pw.maxInflight != 1 {
		t.Fatalf("per-write: %d doorbells for %d appends, max run %d, max in flight %d; want stop-and-wait",
			pw.doorbells, pw.appends, pw.maxGroup, pw.maxInflight)
	}
	t.Logf("full window: %d doorbells / %d appends (max run %d); per-write: %d/%d",
		full.doorbells, full.appends, full.maxGroup, pw.doorbells, pw.appends)
}

// TestBurstLargerThanStagingRing: 64 sync writers push 45x the staging
// ring and several laps of the remote ring through a 4 KiB staging ring.
// Staging space is reused only after its completion — a frame overwritten
// early would land corrupt — so every acknowledged record above the
// horizon must parse back intact after many wraps, pad markers included,
// of both rings; backpressure coalesces; nothing deadlocks.
func TestBurstLargerThanStagingRing(t *testing.T) {
	const writers, perWriter, key = 64, 40, 81
	const total = writers * perWriter
	r := stagerRun{key: key, slotSize: 48 << 10, writers: writers, perWriter: perWriter, staging: 4 << 10,
		settled: func(tw *testWAL, srv *logHost) {
			tw.covered.Store(total - 100)
			if err := tw.l.RefreshNow(); err != nil {
				t.Fatalf("RefreshNow: %v", err)
			}
			h, _, recs, err := ParseImage(slotImage(srv, key))
			if err != nil {
				t.Fatalf("ParseImage: %v", err)
			}
			seen := map[uint64]bool{}
			for _, rec := range recs {
				for _, e := range rec.Entries {
					if want := fmt.Sprintf("value-payload-%06d", e.Seq); string(e.Value) != want {
						t.Fatalf("seq %d reads back %q, want %q", e.Seq, e.Value, want)
					}
					seen[e.Seq] = true
				}
			}
			for seq := h.Covered + 1; seq <= total; seq++ {
				if !seen[seq] {
					t.Fatalf("acked seq %d above horizon %d lost (%d records scanned)", seq, h.Covered, len(recs))
				}
			}
			if tw.m.RingStalls.Load() == 0 || tw.m.RingStallNS.Load() == 0 || tw.m.Truncations.Load() < 3 {
				t.Fatalf("stalls=%d stall_ns=%d truncations=%d: the burst never filled a ring",
					tw.m.RingStalls.Load(), tw.m.RingStallNS.Load(), tw.m.Truncations.Load())
			}
		}}.run(t)
	if r.appends != total || r.doorbells >= r.appends || r.maxGroup < 2 {
		t.Fatalf("burst did not coalesce: %d doorbells for %d appends (max run %d)", r.doorbells, r.appends, r.maxGroup)
	}
}

// TestCloseDrainsWindow: Close returns only once every staged record —
// acknowledged to nobody, async — is durable in the remote ring.
func TestCloseDrainsWindow(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 82, 256<<10, false)
		const n = 300
		for seq := uint64(1); seq <= n; seq++ {
			tok, err := tw.l.Stage(seq, 1, func(int) (byte, []byte, []byte) { return 1, []byte(fmt.Sprintf("k%04d", seq)), []byte("v") })
			if err != nil {
				t.Fatalf("Stage: %v", err)
			}
			if err := tw.l.Commit(tok, false); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
		tw.l.Close()
		if tw.l.durableLSN != n || len(tw.l.inflight) != 0 {
			t.Fatalf("after Close: durable lsn %d of %d, %d doorbells in flight", tw.l.durableLSN, n, len(tw.l.inflight))
		}
		_, _, recs, err := ParseImage(slotImage(srv, 82))
		if err != nil || len(recs) != n {
			t.Fatalf("ParseImage: %d records, err %v; want %d", len(recs), err, n)
		}
	})
}

// TestPumpStopsAtReservedRecord: a record that is reserved but not framed
// holds back everything behind it — posting past it would let a later LSN
// land, and acknowledge, above a hole. Its Post releases the lot as one
// run. A reservation still open at Close strands the records behind it:
// their sync waiters get ErrClosed instead of parking forever, and the
// late Post is refused so its writer never applies the write.
func TestPumpStopsAtReservedRecord(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 83, 256<<10, false)
		l := tw.l
		ent := func(int) (byte, []byte, []byte) { return 1, []byte("key"), []byte("value") }
		reserve := func() Token {
			tok, err := l.Reserve(0, 1, ent)
			if err != nil {
				t.Fatalf("Reserve: %v", err)
			}
			return tok
		}
		a, b := reserve(), reserve()
		if err := l.Post(b, 2, ent); err != nil {
			t.Fatalf("Post(b): %v", err)
		}
		env.Sleep(10 * time.Microsecond) // several round trips: anything posted would be durable by now
		l.mu.Lock()
		posted, durable := l.posted, l.durableLSN
		l.mu.Unlock()
		if posted != 0 || durable != 0 {
			t.Fatalf("lsn %d framed behind reserved-only lsn %d: posted=%d durable=%d, want 0, 0", b.lsn, a.lsn, posted, durable)
		}
		if err := l.Post(a, 1, ent); err != nil {
			t.Fatalf("Post(a): %v", err)
		}
		if err := l.Commit(b, true); err != nil {
			t.Fatalf("Commit(b): %v", err)
		}
		if d, g := tw.m.Doorbells.Load(), tw.m.GroupRecords.Snapshot().Max; d != 1 || g != 2 {
			t.Fatalf("%d doorbells, max run %d; want both records in one run", d, g)
		}
		_, _, recs, err := ParseImage(slotImage(srv, 83))
		if err != nil || len(recs) != 2 || recs[0].SeqLo != 1 || recs[1].SeqLo != 2 {
			t.Fatalf("ParseImage: %+v, err %v; want seqs 1, 2 in LSN order", recs, err)
		}

		c, d := reserve(), reserve()
		if err := l.Post(d, 4, ent); err != nil {
			t.Fatalf("Post(d): %v", err)
		}
		l.Close()
		if err := l.Commit(d, true); !errors.Is(err, ErrClosed) {
			t.Fatalf("Commit behind a reservation open at Close = %v, want ErrClosed", err)
		}
		if err := l.Post(c, 3, ent); !errors.Is(err, ErrClosed) {
			t.Fatalf("Post after Close = %v, want ErrClosed", err)
		}
	})
}
