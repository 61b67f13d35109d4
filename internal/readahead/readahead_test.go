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
func (r *rig) sched(depth, minW, maxW int) *Scheduler {
	size := len(r.data)
	return New(Config{
		Base:      r.base,
		Size:      size,
		Pool:      r.pool,
		Depth:     depth,
		MinWindow: minW,
		MaxWindow: maxW,
	}, func(off, want int) int {
		end := off + want
		if end > size {
			end = size
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

// Sequential consumption must deliver exact bytes, keep at most Depth
// fetches (and so at most Depth+1 buffers) alive, and prefetch every byte
// exactly once.
func TestSchedulerSequentialDelivery(t *testing.T) {
	const size, entry = 64 << 10, 64
	withRig(t, size, 4<<10, func(r *rig) {
		s := r.sched(4, 1<<10, 4<<10)
		for off := 0; off < size; off += entry {
			b, lo, err := s.ReadAt(off, off+entry)
			if err != nil {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			if got := b[off-lo : off-lo+entry]; !bytes.Equal(got, r.data[off:off+entry]) {
				t.Fatalf("bytes mismatch at %d", off)
			}
			if g := r.m.Inflight.Load(); g < 0 || g > 4 {
				t.Fatalf("inflight gauge out of range: %d", g)
			}
		}
		s.Close()
		if got := r.m.BytesPrefetched.Load(); got != size {
			t.Fatalf("bytes_prefetched = %d, want %d", got, size)
		}
		if wasted := r.m.BytesWasted.Load(); wasted != 0 {
			t.Fatalf("sequential scan wasted %d bytes", wasted)
		}
		if alloc, _ := r.pool.Stats(); alloc > 5 {
			t.Fatalf("pool allocated %d buffers for depth 4", alloc)
		}
	})
}

// The adaptive window starts at MinWindow, tracks 1/Depth of the bytes
// the run has consumed, and resets to MinWindow on a seek outside the
// planned run.
func TestSchedulerAdaptiveWindow(t *testing.T) {
	const size, kb = 256 << 10, 1 << 10
	withRig(t, size, 64<<10, func(r *rig) {
		var wants []int
		s := New(Config{
			Base: r.base, Size: size,
			Pool: r.pool, Depth: 2, MinWindow: kb, MaxWindow: 3 * kb,
		}, func(off, want int) int {
			wants = append(wants, want)
			end := off + want
			if end > size {
				end = size
			}
			return end
		})
		expect := func(what string, want ...int) {
			t.Helper()
			if fmt.Sprint(wants) != fmt.Sprint(want) {
				t.Fatalf("%s wants = %v, want %v", what, wants, want)
			}
			wants = nil
		}
		read := func(off int) {
			t.Helper()
			if _, _, err := s.ReadAt(off, off+64); err != nil {
				t.Fatal(err)
			}
		}
		// The covering chunk plus the Depth refills all post at MinWindow:
		// nothing is consumed yet, so the initial burst stays small.
		read(0)
		expect("initial", kb, kb, kb)
		// Chunks are [0,1) [1,2) [2,3) KiB; each advance posts one refill
		// sized at half of what the run has consumed so far.
		read(1 * kb) // consumed 2 KiB -> 1 KiB
		read(2 * kb) // consumed 3 KiB -> 1.5 KiB
		read(3 * kb) // consumed 4 KiB -> 2 KiB
		expect("advance", kb, kb+kb/2, 2*kb)
		read(4 * kb)      // consumed 5.5 KiB -> 2.75 KiB
		read(5*kb + kb/2) // consumed 7.5 KiB -> capped at MaxWindow
		expect("ramp", 2*kb+3*kb/4, 3*kb)
		// Seek far outside the planned run: window must reset.
		read(128 * kb)
		expect("post-seek", kb, kb, kb)
		if r.m.BytesWasted.Load() == 0 {
			t.Fatal("seek abandoned no bytes")
		}
		s.Close()
	})
}

// The waste bound the default scan path rests on: however long a scan
// runs before it is closed, one table iterator prefetches at most twice
// the chunk bytes it consumed plus Depth x MinWindow, and a scan of about
// a hundred 420-byte entries never posts a read over 64 KiB.
func TestSchedulerWasteBound(t *testing.T) {
	const size, entry = 8 << 20, 420
	rng := rand.New(rand.NewSource(20230401))
	for _, depth := range []int{2, 4, 8} {
		for _, entries := range []int{1, 10, 100, 10_000} {
			withRig(t, size, 2<<20, func(r *rig) {
				largest := 0
				s := New(Config{
					Base: r.base, Size: size, Pool: r.pool,
					Depth: depth, MaxWindow: 2 << 20,
				}, func(off, want int) int {
					end := off + (want+entry-1)/entry*entry // whole entries
					if end > size {
						end = size
					}
					if end-off > largest {
						largest = end - off
					}
					return end
				})
				start := rng.Intn(size/entry-entries) * entry
				for i := 0; i < entries; i++ {
					off := start + i*entry
					if _, _, err := s.ReadAt(off, off+entry); err != nil {
						t.Fatal(err)
					}
				}
				s.Close()
				fetched, wasted := r.m.BytesPrefetched.Load(), r.m.BytesWasted.Load()
				consumed := fetched - wasted
				// Chunks round up to whole entries: one entry of slack each.
				bound := 2*consumed + int64(depth*(DefaultMinWindow+entry))
				if consumed < int64(entries*entry) || fetched > bound {
					t.Errorf("depth %d, %d entries: prefetched %d, consumed %d, bound %d",
						depth, entries, fetched, consumed, bound)
				}
				if depth == 2 && entries <= 100 && largest > 64<<10 {
					t.Errorf("%d-entry scan posted a %d-byte read", entries, largest)
				}
			})
		}
	}
}

// Close with fetches still in flight never blocks and spawns nothing: the
// abandoned bytes count as wasted at once, the lane is parked with its
// fetches, and the next scheduler on the pool takes the same queue pair
// and reaps them behind its own first fetch.
func TestSchedulerCloseParksLaneForNextTaker(t *testing.T) {
	const size = 256 << 10
	withRig(t, size, 8<<10, func(r *rig) {
		s := r.sched(4, 8<<10, 8<<10)
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
		if w := r.m.BytesWasted.Load(); w != 4*8<<10 {
			t.Fatalf("bytes_wasted after Close = %d, want %d", w, 4*8<<10)
		}
		qps := r.cn.NumQPs()

		// A scheduler that never reads takes no lane.
		r.sched(2, 8<<10, 8<<10).Close()
		if g := r.m.Inflight.Load(); g != 4 {
			t.Fatalf("idle scheduler touched the lane: inflight = %d", g)
		}

		s2 := r.sched(2, 8<<10, 8<<10)
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
		if w := r.m.BytesWasted.Load(); w != 4*8<<10 {
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
			s := r.sched(depth, 16<<10, 16<<10)
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
