package wal

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// logHost is a minimal stand-in for the memory node's log region — just
// registered slot memory on the remote node, with memnode's OpenLog
// surface. The real memnode now parses WAL records for flush offloading
// (so it imports this package), which makes it unusable from these
// internal tests.
type logHost struct {
	node *rdma.Node
	mr   *rdma.MemoryRegion
	next int
	logs map[uint64]logSlot
}

type logSlot struct {
	Addr rdma.RemoteAddr
	Size int64
}

func newLogHost(mn *rdma.Node) *logHost {
	return &logHost{node: mn, mr: mn.Register(8 << 20), logs: map[uint64]logSlot{}}
}

func (h *logHost) Node() *rdma.Node          { return h.node }
func (h *logHost) LogMR() *rdma.MemoryRegion { return h.mr }

func (h *logHost) OpenLog(key uint64, size int64) (logSlot, error) {
	if s, ok := h.logs[key]; ok {
		return s, nil
	}
	off := (h.next + 4095) &^ 4095
	if off+int(size) > h.mr.Size() {
		return logSlot{}, fmt.Errorf("log region full")
	}
	h.next = off + int(size)
	s := logSlot{Addr: h.mr.Addr(off), Size: size}
	h.logs[key] = s
	return s, nil
}

func (h *logHost) FindLog(key uint64) (logSlot, bool) {
	s, ok := h.logs[key]
	return s, ok
}

// walHarness runs fn inside a fresh simulated deployment.
func walHarness(t *testing.T, fn func(env *sim.Env, cn *rdma.Node, srv *logHost)) {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	srv := newLogHost(mn)
	env.Run(func() {
		fn(env, cn, srv)
		fab.Close()
	})
	env.Wait()
}

// testWAL bundles a Log with a controllable covered horizon. Its Kick
// plays the engine's flush pipeline: when appends stall on ring space it
// advances the horizon to just below the acked frontier, the way a real
// kick forces a memtable switch whose flush advances the checkpoint.
type testWAL struct {
	l       *Log
	covered atomic.Uint64
	acked   atomic.Uint64
	m       Metrics
}

func openTestWAL(t *testing.T, env *sim.Env, cn *rdma.Node, srv *logHost, key uint64, slotSize int64, perWrite bool) *testWAL {
	t.Helper()
	return openMirroredTestWAL(t, env, cn, srv, key, slotSize, perWrite, nil)
}

// openMirroredTestWAL is openTestWAL with a replica slot (nil: none).
func openMirroredTestWAL(t *testing.T, env *sim.Env, cn *rdma.Node, srv *logHost, key uint64, slotSize int64, perWrite bool, replica *ReplicaConfig) *testWAL {
	t.Helper()
	slot, err := srv.OpenLog(key, slotSize)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	tw := &testWAL{}
	reg := cn.Fabric().Telemetry()
	tw.m = Metrics{
		Appends:      reg.Counter(fmt.Sprintf("test.wal%d.appends", key)),
		AppendBytes:  reg.Counter(fmt.Sprintf("test.wal%d.bytes", key)),
		Doorbells:    reg.Counter(fmt.Sprintf("test.wal%d.doorbells", key)),
		GroupRecords: reg.Histogram(fmt.Sprintf("test.wal%d.group", key)),
		Truncations:  reg.Counter(fmt.Sprintf("test.wal%d.truncations", key)),
		RingStalls:   reg.Counter(fmt.Sprintf("test.wal%d.stalls", key)),
		RingStallNS:  reg.Counter(fmt.Sprintf("test.wal%d.stall_ns", key)),
		CommitWait:   reg.Histogram(fmt.Sprintf("test.wal%d.commit_wait", key)),
		Inflight:     reg.Gauge(fmt.Sprintf("test.wal%d.inflight", key)),
	}
	l, err := Open(Config{
		Env: env, Compute: cn, Host: srv.Node(),
		Slot: slot.Addr, SlotSize: slot.Size,
		PerWrite: perWrite, Replica: replica,
		Refresh: func() ([]byte, uint64) { return []byte("test-checkpoint-blob"), tw.covered.Load() },
		Kick: func() {
			if a := tw.acked.Load(); a > 20 {
				for {
					cur := tw.covered.Load()
					if a-20 <= cur || tw.covered.CompareAndSwap(cur, a-20) {
						break
					}
				}
				tw.l.RequestRefresh()
			}
		},
		Metrics: tw.m,
	}, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tw.l = l
	return tw
}

// put stages one entry and waits for durability.
func (tw *testWAL) put(t *testing.T, seq uint64, key, value string) {
	t.Helper()
	tok, err := tw.l.Stage(seq, 1, func(int) (byte, []byte, []byte) { return 1, []byte(key), []byte(value) })
	if err != nil {
		t.Fatalf("Stage(seq=%d): %v", seq, err)
	}
	if err := tw.l.Commit(tok, true); err != nil {
		t.Fatalf("Commit(seq=%d): %v", seq, err)
	}
	tw.noteAcked(seq)
}

// noteAcked raises the acked frontier Kick derives the horizon from.
func (tw *testWAL) noteAcked(seq uint64) {
	for {
		cur := tw.acked.Load()
		if seq <= cur || tw.acked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// image snapshots the raw slot bytes from the memory node.
func slotImage(srv *logHost, key uint64) []byte {
	slot, ok := srv.FindLog(key)
	if !ok {
		panic("no log slot")
	}
	return append([]byte(nil), srv.LogMR().Bytes(slot.Addr.Off, int(slot.Size))...)
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Epoch: 7, StartOff: 1234, StartLSN: 99, Covered: 424242,
		CkptCap: 4096, CkptSlot: 1, CkptLen: 17, CkptCRC: 0xDEADBEEF}
	got, err := DecodeHeader(encodeHeader(h))
	if err != nil {
		t.Fatalf("decodeHeader: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
	if _, err := DecodeHeader(make([]byte, HeaderSize)); err == nil {
		t.Fatal("zero header decoded without error")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	buf := appendRecord(nil, 3, 11, 100, 2, func(i int) (byte, []byte, []byte) {
		return byte(i), []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))
	})
	rec, size, ok := parseRecord(buf, 3, 11)
	if !ok || size != len(buf) {
		t.Fatalf("parseRecord: ok=%v size=%d want %d", ok, size, len(buf))
	}
	if rec.LSN != 11 || rec.SeqLo != 100 || len(rec.Entries) != 2 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Entries[1].Seq != 101 || string(rec.Entries[1].Key) != "k1" || string(rec.Entries[1].Value) != "v1" {
		t.Fatalf("entry %+v", rec.Entries[1])
	}
	// Wrong epoch, wrong LSN, flipped bytes: all rejected.
	if _, _, ok := parseRecord(buf, 4, 11); ok {
		t.Fatal("accepted wrong epoch")
	}
	if _, _, ok := parseRecord(buf, 3, 12); ok {
		t.Fatal("accepted wrong lsn")
	}
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if rec, _, ok := parseRecord(bad, 3, 11); ok {
			// A flip in the length field could still frame a valid record
			// only if the CRC matched, which a single bit flip prevents.
			t.Fatalf("accepted corrupt byte %d: %+v", i, rec)
		}
	}
}

// TestWalkSpan: a span of back-to-back records decodes entry by entry, in
// ring order, aliasing the buffer and allocating nothing; EntryAt finds
// each entry again at the offset WalkSpan gave; a span that is not exactly
// valid records (a flipped byte, a cut, a trailing byte) is refused.
func TestWalkSpan(t *testing.T) {
	var span []byte
	for r := 0; r < 3; r++ { // records of 1, 2 and 3 entries, seqs 10..15
		span = appendRecord(span, 3, uint64(7+r), uint64(10+r*(r+1)/2), r+1, func(i int) (byte, []byte, []byte) {
			return byte(i), []byte(fmt.Sprintf("k%d.%d", r, i)), []byte(fmt.Sprintf("value-%d.%d", r, i))
		})
	}
	var seqs []uint64
	ok := WalkSpan(span, 3, func(e Entry, at int) {
		seqs = append(seqs, e.Seq)
		kind, key, value, ok := EntryAt(span, at)
		if !ok || kind != e.Kind || !bytes.Equal(key, e.Key) || !bytes.Equal(value, e.Value) {
			t.Fatalf("seq %d: EntryAt(%d) = %d %q %q %v, walked %d %q %q", e.Seq, at, kind, key, value, ok, e.Kind, e.Key, e.Value)
		}
		if &key[0] != &e.Key[0] || &e.Key[0] != &span[at+entryOverhead] {
			t.Fatalf("seq %d: key does not alias the span", e.Seq)
		}
	})
	if want := []uint64{10, 11, 12, 13, 14, 15}; !ok || fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("WalkSpan = %v, seqs %v, want %v", ok, seqs, want)
	}
	if n := testing.AllocsPerRun(100, func() { WalkSpan(span, 3, func(Entry, int) {}) }); n != 0 {
		t.Errorf("WalkSpan allocates %.0f times per span, want 0", n)
	}
	refuse := func(what string, b []byte, epoch uint64) {
		if WalkSpan(b, epoch, func(Entry, int) {}) {
			t.Errorf("WalkSpan accepted %s", what)
		}
	}
	refuse("a stale epoch", span, 4)
	refuse("an empty span", nil, 3)
	refuse("a cut span", span[:len(span)-1], 3)
	refuse("a trailing byte", append(append([]byte(nil), span...), 0), 3)
	for i := range span {
		bad := append([]byte(nil), span...)
		bad[i] ^= 0x40
		refuse(fmt.Sprintf("a flipped byte %d", i), bad, 3)
	}
	if _, _, _, ok := EntryAt(span, len(span)-3); ok {
		t.Error("EntryAt decoded a frame that runs off the buffer")
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 1, 64<<10, false)
		for i := 1; i <= 20; i++ {
			tw.put(t, uint64(i), fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
		}
		h, ckpt, recs, err := ParseImage(slotImage(srv, 1))
		if err != nil {
			t.Fatalf("ParseImage: %v", err)
		}
		if h.Covered != 0 || ckpt != nil {
			t.Fatalf("unexpected checkpoint before refresh: covered=%d ckpt=%q", h.Covered, ckpt)
		}
		var seqs []uint64
		for _, r := range recs {
			for _, e := range r.Entries {
				seqs = append(seqs, e.Seq)
			}
		}
		if len(seqs) != 20 {
			t.Fatalf("scanned %d entries, want 20 (%v)", len(seqs), seqs)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("entry %d has seq %d", i, s)
			}
		}
		// Refresh publishes the checkpoint blob and covers everything.
		tw.covered.Store(20)
		if err := tw.l.RefreshNow(); err != nil {
			t.Fatalf("RefreshNow: %v", err)
		}
		h, ckpt, recs, err = ParseImage(slotImage(srv, 1))
		if err != nil {
			t.Fatalf("ParseImage after refresh: %v", err)
		}
		if h.Covered != 20 || !bytes.Equal(ckpt, []byte("test-checkpoint-blob")) || len(recs) != 0 {
			t.Fatalf("after refresh: covered=%d ckpt=%q recs=%d", h.Covered, ckpt, len(recs))
		}
		tw.l.Close()
	})
}

func TestRingWraparound(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 2, 16<<10, false)
		if tw.l.ringSize >= 1<<14 {
			t.Fatalf("ring unexpectedly large: %d", tw.l.ringSize)
		}
		// Push many times the ring's capacity through it. Truncation is
		// driven entirely by the stall path: the ring fills, the commit
		// loop kicks, the horizon advances, space frees — wrap after wrap.
		const n = 500
		for i := 1; i <= n; i++ {
			tw.put(t, uint64(i), fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d-padpadpadpadpad", i))
		}
		// Quiesce with a final horizon keeping (at most) the last 25.
		tw.covered.Store(n - 25)
		if err := tw.l.RefreshNow(); err != nil {
			t.Fatalf("RefreshNow: %v", err)
		}
		h, _, recs, err := ParseImage(slotImage(srv, 2))
		if err != nil {
			t.Fatalf("ParseImage: %v", err)
		}
		if h.Covered < n-25 || h.Covered >= n {
			t.Fatalf("covered=%d, want within [%d,%d)", h.Covered, n-25, n)
		}
		var got []uint64
		for _, r := range recs {
			for _, e := range r.Entries {
				got = append(got, e.Seq)
			}
		}
		// Every acked entry above the horizon must survive, in seq order.
		if len(got) != int(n-h.Covered) {
			t.Fatalf("scanned %d entries above horizon %d, want %d (%v)", len(got), h.Covered, n-h.Covered, got)
		}
		for i, s := range got {
			if s != h.Covered+1+uint64(i) {
				t.Fatalf("entry %d: seq %d", i, s)
			}
			if want := fmt.Sprintf("key-%05d", s); string(recs[i].Entries[0].Key) != want {
				t.Fatalf("entry %d: key %q want %q", i, recs[i].Entries[0].Key, want)
			}
		}
		if tw.m.RingStalls.Load() == 0 {
			t.Fatal("expected ring-full stalls with a tiny ring")
		}
		if tw.m.Truncations.Load() < 3 {
			t.Fatalf("truncations=%d, expected repeated horizon advances", tw.m.Truncations.Load())
		}
		tw.l.Close()
	})
}

func TestTruncationRacesAppends(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 3, 32<<10, false)
		var seqCtr, acked atomic.Uint64
		const writers, perWriter = 8, 100
		writersWG := sim.NewWaitGroup(env)
		for w := 0; w < writers; w++ {
			w := w
			writersWG.Add(1)
			env.Go(func() {
				defer writersWG.Done()
				for i := 0; i < perWriter; i++ {
					seq := seqCtr.Add(1)
					tok, err := tw.l.Stage(seq, 1, func(int) (byte, []byte, []byte) {
						return 1, []byte(fmt.Sprintf("w%d-k%06d", w, seq)), []byte(fmt.Sprintf("v%06d", seq))
					})
					if err != nil {
						t.Errorf("Stage: %v", err)
						return
					}
					if err := tw.l.Commit(tok, true); err != nil {
						t.Errorf("Commit: %v", err)
						return
					}
					// Track the contiguous acked prefix for the trimmer.
					for {
						cur := acked.Load()
						if seq <= cur || acked.CompareAndSwap(cur, seq) {
							break
						}
					}
				}
			})
		}
		// A refresher races the writers, aggressively moving the horizon
		// to just below the acked frontier.
		var stop atomic.Bool
		refresherWG := sim.NewWaitGroup(env)
		refresherWG.Add(1)
		env.Go(func() {
			defer refresherWG.Done()
			for !stop.Load() {
				if a := acked.Load(); a > 10 {
					tw.covered.Store(a - 10)
					tw.l.RequestRefresh()
				}
				env.Sleep(20_000) // 20µs
			}
		})
		writersWG.Wait()
		stop.Store(true)
		refresherWG.Wait()
		total := uint64(writers * perWriter)
		tw.covered.Store(total - 30)
		if err := tw.l.RefreshNow(); err != nil {
			t.Fatalf("final RefreshNow: %v", err)
		}
		h, _, recs, err := ParseImage(slotImage(srv, 3))
		if err != nil {
			t.Fatalf("ParseImage: %v", err)
		}
		if h.Covered != total-30 {
			t.Fatalf("covered=%d want %d", h.Covered, total-30)
		}
		seen := map[uint64]bool{}
		for _, r := range recs {
			for _, e := range r.Entries {
				seen[e.Seq] = true
			}
		}
		for seq := h.Covered + 1; seq <= total; seq++ {
			if !seen[seq] {
				t.Fatalf("acked seq %d above horizon lost (scanned %d entries)", seq, len(seen))
			}
		}
		if tw.m.Truncations.Load() < 3 {
			t.Fatalf("truncations=%d, expected the horizon to advance repeatedly", tw.m.Truncations.Load())
		}
		tw.l.Close()
	})
}

func TestTornTailDetection(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 4, 64<<10, false)
		for i := 1; i <= 10; i++ {
			tw.put(t, uint64(i), fmt.Sprintf("key-%02d", i), "value")
		}
		// Corrupt one byte inside the last record — a torn doorbell write.
		slot, _ := srv.FindLog(4)
		ringBytes := int(tw.m.AppendBytes.Load())
		srv.LogMR().SetByte(slot.Addr.Off+tw.l.ringBase+ringBytes-6, 0xA5)
		_, _, recs, err := ParseImage(slotImage(srv, 4))
		if err != nil {
			t.Fatalf("ParseImage: %v", err)
		}
		if len(recs) != 9 {
			t.Fatalf("scanned %d records past a torn tail, want 9", len(recs))
		}
		for i, r := range recs {
			if r.SeqLo != uint64(i+1) {
				t.Fatalf("record %d: seqLo %d", i, r.SeqLo)
			}
		}
		tw.l.Close()
	})
}
