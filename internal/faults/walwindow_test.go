package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
	"dlsm/internal/wal"
)

// The scenarios below hold the remote log's commit window full — several
// doorbells posted back to back, none yet completed — and break it in the
// middle: a failed verb, a dead compute node, a moved lease. They drive
// wal.Log directly against a bare registered region (no engine, no
// memnode) so every doorbell on the wire is the log's own. Each derives
// its fault position from the sim seed and is run twice per seed: the
// outcome must be identical.

const (
	walSlotSize = 256 << 10
	walRecSize  = 69 // framed size of one walBed record: fixed-width key and value
)

// walBed is one compute node appending to a log slot on a memory node,
// plus a second compute node that plays the recovering reader.
type walBed struct {
	env          *sim.Env
	fab          *rdma.Fabric
	mem, cn, cn2 *rdma.Node
	inj          *Injector
	slot         *rdma.MemoryRegion
	fence        *rdma.MemoryRegion // one lease word
	log          *wal.Log
	inflight     *telemetry.Gauge
	maxInflight  int64
}

func newWALBed(seed int64) *walBed {
	env := sim.NewEnvSeed(seed)
	fab := rdma.NewFabric(env, rdma.EDR100())
	b := &walBed{env: env, fab: fab, mem: fab.AddNode("mem", 2),
		cn: fab.AddNode("compute1", 8), cn2: fab.AddNode("compute2", 8)}
	b.inj = New(fab, 0)
	b.slot = b.mem.Register(walSlotSize)
	b.fence = b.mem.Register(8)
	b.inflight = fab.Telemetry().Gauge("test.wal.inflight")
	return b
}

// open starts the log; fenceWord 0 leaves it unfenced.
func (b *walBed) open(t *testing.T, fenceWord uint64) {
	t.Helper()
	l, err := wal.Open(wal.Config{
		Env: b.env, Compute: b.cn, Host: b.mem,
		Slot: b.slot.Addr(0), SlotSize: walSlotSize,
		Fence: b.fence.Addr(0), FenceWord: fenceWord,
		Refresh: func() ([]byte, uint64) { return nil, 0 },
		Metrics: wal.Metrics{Inflight: b.inflight},
	}, false)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	b.log = l
}

// put stages entry seq, notes how full the window is, and waits for the
// acknowledgement.
func (b *walBed) put(seq uint64) error {
	tok, err := b.log.Stage(seq, 1, func(int) (byte, []byte, []byte) {
		return 1, []byte(fmt.Sprintf("key-%08d", seq)), []byte(fmt.Sprintf("val-%08d", seq))
	})
	if err != nil {
		return err
	}
	if n := b.inflight.Load(); n > b.maxInflight {
		b.maxInflight = n
	}
	return b.log.Commit(tok, true)
}

// recoverLog reads the slot back one-sided from the second compute node
// and parses it the way engine.Recover does.
func (b *walBed) recoverLog(t *testing.T) (recs []wal.Record, ring []byte) {
	t.Helper()
	qp := b.cn2.NewQP(b.mem)
	defer qp.Close()
	mr := b.cn2.Register(walSlotSize)
	defer b.cn2.Deregister(mr)
	if err := qp.ReadSync(mr, 0, b.slot.Addr(0), walSlotSize); err != nil {
		t.Fatalf("reading the slot back: %v", err)
	}
	img := append([]byte(nil), mr.Bytes(0, walSlotSize)...)
	_, _, recs, err := wal.ParseImage(img)
	if err != nil {
		t.Fatalf("ParseImage: %v", err)
	}
	_, ringBase, _, _ := wal.Geometry(walSlotSize)
	return recs, img[ringBase:]
}

// checkPrefix asserts recs is the hole-free LSN prefix 1..n, entry seq ==
// LSN, and that it contains every acknowledged seq.
func checkPrefix(t *testing.T, recs []wal.Record, acked []uint64) {
	t.Helper()
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.SeqLo != r.LSN || len(r.Entries) != 1 {
			t.Fatalf("recovered record %d is lsn %d seq %d: not a contiguous prefix", i, r.LSN, r.SeqLo)
		}
		if want := fmt.Sprintf("val-%08d", r.SeqLo); string(r.Entries[0].Value) != want {
			t.Fatalf("recovered seq %d = %q, want %q", r.SeqLo, r.Entries[0].Value, want)
		}
	}
	for _, seq := range acked {
		if seq > uint64(len(recs)) {
			t.Fatalf("acknowledged seq %d lost: recovery returned lsn 1..%d", seq, len(recs))
		}
	}
}

// twice runs a seeded scenario twice per seed and requires identical
// outcomes.
func twice[T comparable](t *testing.T, run func(t *testing.T, seed int64) T) {
	t.Helper()
	for seed := int64(1); seed <= 4; seed++ {
		a, b := run(t, seed), run(t, seed)
		if a != b {
			t.Fatalf("seed %d diverged:\n  run1 %+v\n  run2 %+v", seed, a, b)
		}
		t.Logf("seed %d: %+v", seed, a)
	}
}

// TestWALFailedDoorbellInFullWindow fails the write of the k-th of six
// doorbells in flight. LSNs below k acknowledge one round trip after their
// post; no LSN >= k acknowledges until the backed-off re-post has landed —
// although the doorbells behind the failed one completed successfully —
// acknowledgements stay in LSN order, and recovery finds all six.
func TestWALFailedDoorbellInFullWindow(t *testing.T) {
	type outcome struct {
		k, maxInflight int64
		ackAt          [6]sim.Time
	}
	twice(t, func(t *testing.T, seed int64) outcome {
		b := newWALBed(seed)
		out := outcome{k: 2 + int64(sim.Mix64(uint64(seed), 0xD00B)%4)} // 2..5
		b.env.Run(func() {
			defer b.fab.Close()
			b.open(t, 0)
			b.inj.AddRule(Rule{Name: "pass", Op: rdma.OpWrite, From: b.cn.ID, To: b.mem.ID, Count: int(out.k) - 1})
			b.inj.AddRule(Rule{Name: "fail-kth", Op: rdma.OpWrite, From: b.cn.ID, To: b.mem.ID, Count: 1, Fail: true})
			var order []uint64
			wg := sim.NewWaitGroup(b.env)
			for seq := uint64(1); seq <= 6; seq++ {
				wg.Add(1)
				b.env.Go(func() {
					defer wg.Done()
					if err := b.put(seq); err != nil {
						t.Errorf("put %d: %v", seq, err)
						return
					}
					out.ackAt[seq-1] = b.env.Now()
					order = append(order, seq)
				})
			}
			wg.Wait()
			out.maxInflight = b.maxInflight
			for i, seq := range order {
				if seq != uint64(i+1) {
					t.Errorf("acknowledgement order %v is not LSN order", order)
					break
				}
			}
			for i, at := range out.ackAt {
				early := time.Duration(at) < 10*time.Microsecond
				if below := int64(i+1) < out.k; below != early {
					t.Errorf("lsn %d (failed doorbell: %d) acknowledged at %v", i+1, out.k, time.Duration(at))
				}
			}
			if got := b.fab.Telemetry().Counter("faults.failed").Load(); got != 1 {
				t.Errorf("faults.failed = %d, want 1", got)
			}
			b.log.Close()
			recs, _ := b.recoverLog(t)
			if len(recs) != 6 {
				t.Errorf("recovered %d records, want 6", len(recs))
			}
			checkPrefix(t, recs, order)
		})
		b.env.Wait()
		if out.maxInflight < 3 {
			t.Fatalf("only %d doorbells in flight when the fault hit", out.maxInflight)
		}
		return out
	})
}

// TestWALCrashWithFullWindow kills the compute node while eight staggered
// writers keep the window full, one microsecond after one doorbell's write
// failed:
// the doorbells behind the failure still land, so the ring holds valid
// records past a hole. Recovery must return the contiguous prefix below
// the hole — every acknowledged write, and nothing above it.
func TestWALCrashWithFullWindow(t *testing.T) {
	type outcome struct {
		acked, recovered int
		maxInflight      int64
		pastHole         bool
	}
	twice(t, func(t *testing.T, seed int64) outcome {
		b := newWALBed(seed)
		failAt := sim.Time(30*time.Microsecond) + sim.Time(sim.Mix64(uint64(seed), 0xC4A5)%20000)
		var out outcome
		b.env.Run(func() {
			defer b.fab.Close()
			b.open(t, 0)
			b.inj.AddRule(Rule{Name: "hole", Op: rdma.OpWrite, From: b.cn.ID, To: b.mem.ID, After: failAt, Count: 1, Fail: true})
			b.inj.CrashNode(b.cn, failAt+sim.Time(time.Microsecond), 0)
			var acked []uint64
			var next uint64
			wg := sim.NewWaitGroup(b.env)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				b.env.Go(func() {
					defer wg.Done()
					b.env.Sleep(time.Duration(w) * 200) // out of lockstep: posts spread over the round trip
					for {
						next++
						seq := next
						if b.put(seq) != nil {
							return
						}
						acked = append(acked, seq)
					}
				})
			}
			wg.Wait()
			b.log.Close()
			recs, ring := b.recoverLog(t)
			checkPrefix(t, recs, acked)
			out.acked, out.recovered, out.maxInflight = len(acked), len(recs), b.maxInflight
			// The record after the hole is in the ring, intact, and was not
			// returned: LSN j sits at (j-1)*walRecSize.
			off := (len(recs) + 1) * walRecSize
			// (checkPrefix: every record holds the one entry whose seq is its LSN.)
			var pastSeq uint64
			ok := wal.WalkSpan(ring[off:off+walRecSize], 1, func(e wal.Entry, _ int) { pastSeq = e.Seq })
			out.pastHole = ok && pastSeq == uint64(len(recs))+2
		})
		b.env.Wait()
		if out.acked == 0 || out.maxInflight < 2 {
			t.Fatalf("vacuous: %d acked, %d doorbells in flight at most", out.acked, out.maxInflight)
		}
		if !out.pastHole {
			t.Fatalf("no intact record beyond the hole after lsn %d: the scenario did not leave one", out.recovered)
		}
		return out
	})
}

// TestWALLeaseMovesUnderWindow moves the lease while two fenced runs are
// in flight behind one that already completed: the first keeps its
// acknowledgement, the run whose CAS now fails and the run behind it both
// surface ErrFenced — their bytes may be in the ring, but nothing behind
// the fence acknowledges — and the log stays fenced.
func TestWALLeaseMovesUnderWindow(t *testing.T) {
	type outcome struct {
		maxInflight int64
		ackAt       sim.Time
		fencedAt    [2]sim.Time
	}
	twice(t, func(t *testing.T, seed int64) outcome {
		b := newWALBed(seed)
		const word, stolen = 0x1111, 0x2222
		var out outcome
		b.env.Run(func() {
			defer b.fab.Close()
			copy(b.fence.Bytes(0, 8), []byte{0x11, 0x11}) // little-endian word
			b.open(t, word)
			t0 := b.env.Now()
			gap := sim.Time(200 + sim.Mix64(uint64(seed), 0x1EA5)%200) // ns between stagers
			wg := sim.NewWaitGroup(b.env)
			errs := make([]error, 3)
			for i := 0; i < 3; i++ {
				wg.Add(1)
				b.env.Go(func() {
					defer wg.Done()
					b.env.WaitUntil(t0 + sim.Time(i)*gap)
					errs[i] = b.put(uint64(i + 1))
					if i == 0 {
						out.ackAt = b.env.Now() - t0
					} else {
						out.fencedAt[i-1] = b.env.Now() - t0
					}
				})
			}
			// The takeover CAS executes one atomic latency after its post:
			// after run 1's fence (t0 + 2000 ns), before run 2's (+ gap).
			wg.Add(1)
			b.env.Go(func() {
				defer wg.Done()
				b.env.WaitUntil(t0 + gap/2)
				qp := b.cn2.NewQP(b.mem)
				defer qp.Close()
				if _, swapped, err := qp.CompareSwapSync(b.fence.Addr(0), word, stolen); err != nil || !swapped {
					t.Errorf("takeover CAS: swapped=%v err=%v", swapped, err)
				}
			})
			wg.Wait()
			out.maxInflight = b.maxInflight
			if errs[0] != nil {
				t.Errorf("run ahead of the takeover: %v, want acknowledged", errs[0])
			}
			for i := 1; i < 3; i++ {
				if !errors.Is(errs[i], wal.ErrFenced) {
					t.Errorf("run %d behind the takeover: %v, want ErrFenced", i+1, errs[i])
				}
			}
			if err := b.put(4); !errors.Is(err, wal.ErrFenced) {
				t.Errorf("append after the fence: %v, want ErrFenced", err)
			}
			b.log.Close()
			recs, _ := b.recoverLog(t)
			checkPrefix(t, recs, []uint64{1})
		})
		b.env.Wait()
		if out.maxInflight < 3 {
			t.Fatalf("only %d runs in flight under the takeover", out.maxInflight)
		}
		return out
	})
}
