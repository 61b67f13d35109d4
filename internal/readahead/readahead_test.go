package readahead

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// rig is a two-node fabric with a patterned remote region, run inside the
// simulation so QP traffic advances the virtual clock.
type rig struct {
	env  *sim.Env
	cn   *rdma.Node
	mn   *rdma.Node
	base rdma.RemoteAddr
	data []byte
	pool *Pool
	m    Metrics
}

func withRig(t *testing.T, size, poolBuf int, fn func(r *rig)) {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 4)
	mn := fab.AddNode("memory", 4)
	env.Run(func() {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		mr := mn.Register(size)
		copy(mr.Bytes(0, size), data)
		reg := telemetry.NewRegistry(nil)
		m := Metrics{
			Inflight:        reg.Gauge("inflight"),
			StallNS:         reg.Counter("stall"),
			BytesPrefetched: reg.Counter("prefetched"),
			BytesWasted:     reg.Counter("wasted"),
		}
		fn(&rig{
			env: env, cn: cn, mn: mn,
			base: mr.Addr(0), data: data,
			pool: NewPool(cn, mn, poolBuf, m),
			m:    m,
		})
		fab.Close()
	})
	env.Wait()
}

// sched builds a depth-deep scheduler over the rig's region with simple
// size-capped chunk planning (requests stay entry-aligned in these tests).
func (r *rig) sched(depth, maxW int) *Scheduler {
	return r.schedEntries(depth, maxW, 1, nil)
}

// schedEntries is sched with chunks rounded up to whole entry-byte entries,
// as sstable.Reader.chunkEnd plans them; posted, when set, sees every
// chunk size.
func (r *rig) schedEntries(depth, maxW, entry int, posted func(n int)) *Scheduler {
	size := len(r.data)
	return New(Config{
		Base:      r.base,
		Size:      size,
		Pool:      r.pool,
		Depth:     depth,
		MaxWindow: maxW,
	}, func(off, want int) int {
		end := off + (want+entry-1)/entry*entry
		if end > size {
			end = size
		}
		if posted != nil {
			posted(end - off)
		}
		return end
	})
}

// The free list is a stack: the buffer released last is the warmest, and
// a stack neither walks its backing array forward nor reallocates it.
func TestPoolRecyclesLIFO(t *testing.T) {
	withRig(t, 1<<10, 8<<10, func(r *rig) {
		a, ap := r.pool.Get(4 << 10)
		b, bp := r.pool.Get(4 << 10)
		if !ap || !bp {
			t.Fatal("pool-class buffers not pooled")
		}
		r.pool.Put(a, ap)
		r.pool.Put(b, bp)
		c, _ := r.pool.Get(4 << 10)
		d, _ := r.pool.Get(4 << 10)
		if c != b || d != a {
			t.Fatal("pool did not recycle LIFO")
		}
		if alloc, _ := r.pool.Stats(); alloc != 2 {
			t.Fatalf("allocated = %d, want 2", alloc)
		}
		// Oversized chunks bypass the pool entirely.
		big, pooled := r.pool.Get(64 << 10)
		if pooled {
			t.Fatal("oversized buffer claimed to be pooled")
		}
		if big.Size() < 64<<10 {
			t.Fatalf("oversized buffer too small: %d", big.Size())
		}
		r.pool.Put(big, pooled)
		if alloc, _ := r.pool.Stats(); alloc != 2 {
			t.Fatalf("oversized Get changed pooled count: %d", alloc)
		}
	})
}

// The scheduler's contract over seeded random seek / advance / skip / close
// sequences, scan after scan on one pool so each inherits the lane its
// predecessor abandoned fetches on: every byte handed out is the table's;
// what was prefetched and not wasted is exactly what was handed out (so
// nothing is fetched twice, dropped or double-counted); fetched-but-unread
// bytes stay within Floor + half of what the run has read (plus one entry
// of rounding per chunk); Close never blocks; and the pool's buffers and
// lanes balance once everything is closed.
func TestSchedulerProperties(t *testing.T) {
	const size = 8 << 20
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		depth := []int{1, 2, 4, 8}[rng.Intn(4)]
		entry := []int{64, 420, 4096}[rng.Intn(3)]
		maxW := []int{Floor, 64 << 10, 256 << 10}[rng.Intn(3)]
		withRig(t, size, maxW, func(r *rig) {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d (depth %d, entry %d, maxW %d): %s",
					seed, depth, entry, maxW, fmt.Sprintf(format, args...))
			}
			type scan struct {
				s                 *Scheduler
				start, pos        int   // current run and the next contiguous offset
				returned, skipped int64 // bytes handed out / jumped over inside the pipeline
				p0, w0            int64 // the pool's counters when the scan opened
			}
			open := func() *scan {
				return &scan{s: r.schedEntries(depth, maxW, entry, nil), pos: -1,
					p0: r.m.BytesPrefetched.Load(), w0: r.m.BytesWasted.Load()}
			}
			read := func(sc *scan, off int) {
				b, lo, err := sc.s.ReadAt(off, off+entry)
				if err != nil {
					fail("ReadAt(%d): %v", off, err)
				}
				if !bytes.Equal(b[off-lo:off-lo+entry], r.data[off:off+entry]) {
					fail("bytes mismatch at %d", off)
				}
				sc.returned += int64(entry)
				sc.pos = off + entry
			}
			check := func(sc *scan) {
				unread := r.m.BytesPrefetched.Load() - sc.p0 - (r.m.BytesWasted.Load() - sc.w0) - sc.returned
				if unread < 0 {
					fail("handed out %d bytes more than were fetched and kept", -unread)
				}
				bound := int64(Floor + (sc.pos-sc.start)/2 + (depth+1)*entry)
				if unread-sc.skipped > bound {
					fail("%d bytes fetched but unread at %d, %d into the run: bound %d",
						unread-sc.skipped, sc.pos, sc.pos-sc.start, bound)
				}
				if g := r.m.Inflight.Load(); g < 0 || g > int64(depth) {
					fail("inflight gauge %d", g)
				}
			}
			const scans = 6
			for i := 0; i < scans; i++ {
				sc := open()
				for op, ops := 0, 2+rng.Intn(12); op < ops; op++ {
					switch k := rng.Intn(10); {
					case sc.pos < 0 || k < 3:
						// Seek to where the scheduler must start a new run:
						// before the resident chunk or past anything posted.
						behind, ahead := sc.pos-maxW-2*entry, sc.pos+(depth+2)*(maxW+entry)
						off := rng.Intn(size/entry) * entry
						for sc.pos >= 0 && off >= behind && off < ahead {
							off = rng.Intn(size/entry) * entry
						}
						sc.start = off
						read(sc, off)
					case k < 4 && sc.pos+8*entry < size: // skip a few entries ahead
						n := 1 + rng.Intn(7)
						sc.skipped += int64(n * entry)
						read(sc, sc.pos+n*entry)
					default: // advance
						for n := 1 << rng.Intn(12); n > 0 && sc.pos+entry <= size; n-- {
							read(sc, sc.pos)
						}
					}
					check(sc)
				}
				t0 := r.env.Now()
				sc.s.Close()
				sc.s.Close()
				if r.env.Now() != t0 {
					fail("Close blocked")
				}
				useful := r.m.BytesPrefetched.Load() - sc.p0 - (r.m.BytesWasted.Load() - sc.w0)
				if useful < sc.returned || useful > sc.returned+sc.skipped {
					fail("prefetched - wasted = %d, handed out %d (+%d skipped)", useful, sc.returned, sc.skipped)
				}
			}
			if taken, idle := r.pool.Lanes(); taken != scans || idle != 1 {
				fail("lanes: %d taken, %d idle after %d sequential scans", taken, idle, scans)
			}
			r.pool.Close()
			if alloc, free := r.pool.Stats(); alloc != free {
				fail("pool: %d buffers registered, %d free after Close", alloc, free)
			}
			if g := r.m.Inflight.Load(); g != 0 {
				fail("inflight gauge %d after Pool.Close", g)
			}
		})
	}
}

// A long scan still reaches MaxWindow chunks, and gets there geometrically:
// a full pass costs few fetches more than one at MaxWindow throughout.
func TestSchedulerRampsToMaxWindow(t *testing.T) {
	const size, entry, maxW = 8 << 20, 420, 256 << 10
	withRig(t, size, maxW, func(r *rig) {
		fetches, largest := 0, 0
		s := r.schedEntries(2, maxW, entry, func(n int) {
			fetches++
			largest = max(largest, n)
		})
		for off := 0; off+entry <= size; off += entry {
			if _, _, err := s.ReadAt(off, off+entry); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		if largest < maxW {
			t.Fatalf("largest chunk %d, never reached MaxWindow %d", largest, maxW)
		}
		if most := size/maxW + 64; fetches > most {
			t.Fatalf("%d fetches for a full pass, want at most %d", fetches, most)
		}
		if w := r.m.BytesWasted.Load(); w > entry {
			t.Fatalf("a scan to the end wasted %d bytes", w)
		}
	})
}

// Close with fetches still in flight never blocks and spawns nothing: the
// abandoned bytes count as wasted at once, the lane is parked with its
// fetches, and the next scheduler on the pool takes the same queue pair
// and reaps them behind its own first fetch.
func TestSchedulerCloseParksLaneForNextTaker(t *testing.T) {
	const size = 256 << 10
	withRig(t, size, 8<<10, func(r *rig) {
		s := r.sched(4, 8<<10)
		if _, _, err := s.ReadAt(0, 64); err != nil {
			t.Fatal(err)
		}
		if r.m.Inflight.Load() != 4 {
			t.Fatalf("pipeline did not fill: inflight = %d", r.m.Inflight.Load())
		}
		t0 := r.env.Now()
		s.Close()
		s.Close() // idempotent
		if r.env.Now() != t0 {
			t.Fatal("Close blocked")
		}
		if _, _, err := s.ReadAt(64, 128); err != ErrClosed {
			t.Fatalf("ReadAt after Close = %v, want ErrClosed", err)
		}
		// Everything fetched but the 64 bytes read: the resident chunk's
		// tail and the four fetches in flight.
		wasted := r.m.BytesPrefetched.Load() - 64
		if w := r.m.BytesWasted.Load(); w != wasted {
			t.Fatalf("bytes_wasted after Close = %d, want %d", w, wasted)
		}
		qps := r.cn.NumQPs()

		// A scheduler that never reads takes no lane.
		r.sched(2, 8<<10).Close()
		if g := r.m.Inflight.Load(); g != 4 {
			t.Fatalf("idle scheduler touched the lane: inflight = %d", g)
		}

		s2 := r.sched(2, 8<<10)
		b, lo, err := s2.ReadAt(128<<10, 128<<10+64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b[:64], r.data[lo:lo+64]) {
			t.Fatal("bytes mismatch after reaping an inherited lane")
		}
		if got := r.cn.NumQPs(); got != qps {
			t.Fatalf("second scheduler created a queue pair: %d -> %d", qps, got)
		}
		if g := r.m.Inflight.Load(); g != 2 {
			t.Fatalf("inflight = %d after reaping, want the new pipeline's 2", g)
		}
		if w := r.m.BytesWasted.Load(); w != wasted {
			t.Fatalf("inherited fetches counted as wasted twice: %d", w)
		}
		s2.Close()

		// Pool.Close reaps what is still on the wire and closes the lanes.
		r.pool.Close()
		if g := r.m.Inflight.Load(); g != 0 {
			t.Fatalf("inflight gauge after Pool.Close = %d", g)
		}
		if got := r.cn.NumQPs(); got != qps-1 {
			t.Fatalf("Pool.Close left %d queue pairs, want %d", got, qps-1)
		}
	})
}

// Deeper pipelines must finish a full sequential consumption of the region
// in strictly less virtual time than depth 1: wire time overlaps the gaps
// between requests.
func TestSchedulerDepthOverlaps(t *testing.T) {
	const size, entry = 512 << 10, 64
	elapsed := func(depth int) sim.Duration {
		var d sim.Duration
		withRig(t, size, 16<<10, func(r *rig) {
			s := r.schedEntries(depth, 16<<10, entry, nil)
			t0 := r.env.Now()
			for off := 0; off < size; off += entry {
				if _, _, err := s.ReadAt(off, off+entry); err != nil {
					t.Fatalf("depth %d ReadAt(%d): %v", depth, off, err)
				}
			}
			d = sim.Duration(r.env.Now() - t0)
			s.Close()
		})
		return d
	}
	d1, d4 := elapsed(1), elapsed(4)
	if d4 >= d1 {
		t.Fatalf("depth 4 (%v) not faster than depth 1 (%v)", d4, d1)
	}
}
