package memnode

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dlsm/internal/keys"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/wal"
)

// replayBed is a memory node whose log slot holds n single-entry records —
// sequence i+1 carries a key drawn from a permutation, as a MemTable's
// writers would leave them — written through a real wal.Log, plus the
// descriptor a flush of exactly those entries ships.
type replayBed struct {
	env  *sim.Env
	srv  *Server
	r    FlushReplay
	keys []string // keys[seq-1]
}

// replay runs the server's replay of r as a simulation entity.
func (b *replayBed) replay(r *FlushReplay, add func(ikey, value []byte)) (maxSeq uint64, err error) {
	b.env.Run(func() { maxSeq, err = b.srv.replay(r, add) })
	return maxSeq, err
}

func newReplayBed(t testing.TB, n int) *replayBed {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 4)
	mn := fab.AddNode("memory", 4)
	srv := NewServer(mn, Config{ComputeRegionSize: 1 << 20, SelfRegionSize: 1 << 20, RPCWorkers: 1, LogRegionSize: 8 << 20})
	b := &replayBed{env: env, srv: srv, keys: make([]string, n)}
	t.Cleanup(func() { env.Run(fab.Close); env.Wait() })
	for seq, i := range rand.New(rand.NewSource(5)).Perm(n) {
		b.keys[seq] = fmt.Sprintf("key-%06d", i)
	}
	const logKey = 0xb3d
	env.Run(func() {
		slot, err := srv.OpenLog(logKey, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(wal.Config{Env: env, Compute: cn, Host: mn, Slot: slot.Addr, SlotSize: slot.Size}, false)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		value := make([]byte, 100)
		for seq := 1; seq <= n; seq++ {
			if _, err := l.Stage(uint64(seq), 1, func(int) (byte, []byte, []byte) {
				return byte(keys.KindSet), []byte(b.keys[seq-1]), value
			}); err != nil {
				t.Fatal(err)
			}
		}
		v, err := l.ReplayView(1, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		b.r = FlushReplay{LogKey: logKey, Epoch: v.Epoch, SeqLo: 1, SeqHi: uint64(n), Spans: v.Spans}
	})
	bySeq := make([]int, n)
	for i := range bySeq {
		bySeq[i] = i
	}
	sort.Slice(bySeq, func(i, j int) bool { return b.keys[bySeq[i]] < b.keys[bySeq[j]] })
	for _, off := range bySeq {
		b.r.Order = binary.LittleEndian.AppendUint32(b.r.Order, uint32(off))
	}
	return b
}

func TestReplayFeedsShippedOrder(t *testing.T) {
	const n = 500
	b := newReplayBed(t, n)
	if len(b.r.Spans) > 4 {
		t.Errorf("%d records in a row named as %d spans", n, len(b.r.Spans))
	}
	var last []byte
	fed := 0
	maxSeq, err := b.replay(&b.r, func(ikey, value []byte) {
		ukey, seq, kind, err := keys.Parse(ikey)
		if err != nil || kind != keys.KindSet || string(ukey) != b.keys[seq-1] || len(value) != 100 {
			t.Fatalf("entry %d = %q seq %d kind %d (%v), %d value bytes", fed, ukey, seq, kind, err, len(value))
		}
		if last != nil && keys.Compare(last, ikey) >= 0 {
			t.Fatalf("entry %d out of order", fed)
		}
		last = append(last[:0], ikey...)
		fed++
	})
	if err != nil || fed != n || maxSeq != n {
		t.Fatalf("replay fed %d of %d entries, max seq %d, err %v", fed, n, maxSeq, err)
	}

	// Every way a descriptor can disagree with the ring is an error reply,
	// whatever was fed before it was found out.
	order := func(mutate func(o []byte) []byte) func(*FlushReplay) {
		return func(r *FlushReplay) { r.Order = mutate(append([]byte(nil), r.Order...)) }
	}
	for name, mutate := range map[string]func(*FlushReplay){
		"duplicate offset":         order(func(o []byte) []byte { copy(o[4:8], o[:4]); return o }),
		"offset out of range":      order(func(o []byte) []byte { binary.LittleEndian.PutUint32(o, n); return o }),
		"missing entry":            order(func(o []byte) []byte { return o[:len(o)-4] }),
		"range short of the order": func(r *FlushReplay) { r.SeqHi-- },
		"span outside the ring":    func(r *FlushReplay) { r.Spans = []wal.Span{{Off: 1 << 40, Size: 64}} },
		"span off a record edge":   func(r *FlushReplay) { r.Spans = []wal.Span{{Off: r.Spans[0].Off + 1, Size: r.Spans[0].Size - 1}} },
		"stale epoch":              func(r *FlushReplay) { r.Epoch++ },
		"unknown log":              func(r *FlushReplay) { r.LogKey++ },
	} {
		r := b.r
		mutate(&r)
		if _, err := b.replay(&r, func(_, _ []byte) {}); err == nil {
			t.Errorf("%s: replay succeeded", name)
		}
	}
}

// TestReplayAllocsIndependentOfEntryCount: replay allocates per flush (the
// per-sequence table, the internal-key scratch, its lanes), never per
// entry or per span.
func TestReplayAllocsIndependentOfEntryCount(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, n := range []int{1000, 10000} {
		b := newReplayBed(t, n)
		b.env.Run(func() {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := b.srv.replay(&b.r, func(_, _ []byte) {}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 16 {
				t.Errorf("replay of %d entries in %d spans: %.0f allocations, want a constant few", n, len(b.r.Spans), allocs)
			}
			t.Logf("replay of %d entries in %d spans: %.0f allocations", n, len(b.r.Spans), allocs)
		})
	}
}
