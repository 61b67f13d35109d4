package bench

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/rdma"
	"dlsm/internal/service"
	"dlsm/internal/sim"
)

// Config describes one benchmark run. Zero fields take defaults.
type Config struct {
	System System
	// Threads is the measured phase's thread count, in total: a point on c
	// compute nodes runs Threads/c on each.
	Threads int

	N        int // total operations in the measured phase
	KeyRange int // distinct keys (default, as in db_bench: N)

	ReadRatio float64 // mixed workloads: fraction of reads
	Lambda    int     // dLSM shard count (§VII)

	// Zipf > 1 skews measured-phase key choice with a Zipf(s=Zipf)
	// distribution whose ranks are scrambled across the key space (so hot
	// keys spread over shards). <= 1 is the uniform db_bench draw.
	Zipf float64

	// HotFrac > 0 draws that fraction of measured-phase keys from a hot
	// band HotWidth (fraction of the keyspace) wide; the band's origin
	// advances by HotShift at each third of a thread's run — the
	// shifting-hotspot workload of -fig rebalance.
	HotFrac  float64
	HotWidth float64
	HotShift float64

	// Options states the point's delta on the engine configuration: it
	// runs last on the engine.Options the harness built for System, so a
	// figure variant writes what it sweeps (durability, cache budget,
	// offload layers, cost model, ...) on engine.Options itself and the
	// harness mirrors none of it. The memory nodes take their cost model
	// and log region from the built options, so the two cannot disagree.
	// Nil is the system as the paper evaluates it.
	Options func(*engine.Options)

	// ReplicationFactor 2 holds the last of MemoryNodes >= 2 back as the
	// passive replica every durable artifact is mirrored onto, acked on
	// quorum (internal/repl, -fig repl; needs Durability on). 0 and 1 are
	// the single-copy layout.
	ReplicationFactor int

	// Cluster shape (Fig 12/14/15); zero means the single-node testbed: one
	// 24-core compute node, one 12-core memory node, a 100 Gb/s link.
	ComputeNodes int
	MemoryNodes  int
	ComputeCores int
	MemoryCores  int
	Link         rdma.LinkParams

	// Warmup runs that many unmeasured operations of the configured mix
	// before the measured phase (-fig rebalance: lets the auto-balancer
	// split the hot shard so the measurement sees the settled geometry).
	Warmup int

	// FaultScenario injects faults during the run: "" or "none", "delay"
	// (probabilistic latency on verbs), "flap" (periodic link down/up
	// between compute-0 and memory-0), or "outage" (repeated memnode RPC
	// service crashes — data regions survive, compactions fall back
	// locally). Engine RPC retry policies are shrunk to match the
	// millisecond-scale fault windows.
	FaultScenario string

	Seed int64 // workload generation
}

// The paper's 20-byte keys and 400-byte values, and db_bench seekrandom's
// 100 entries per range scan, on every run.
const (
	keySize = 20
	valSize = 400
	scanLen = 100
)

// Normalize fills defaults; Run calls it first.
func (c Config) Normalize() Config {
	c.Threads = cmp.Or(c.Threads, 16)
	c.N = cmp.Or(c.N, 200_000)
	c.KeyRange = cmp.Or(c.KeyRange, c.N)
	c.Lambda = cmp.Or(c.Lambda, 1)
	c.ComputeNodes = cmp.Or(c.ComputeNodes, 1)
	c.MemoryNodes = cmp.Or(c.MemoryNodes, 1)
	c.ComputeCores = cmp.Or(c.ComputeCores, 24)
	c.MemoryCores = cmp.Or(c.MemoryCores, 12)
	c.Link = cmp.Or(c.Link, rdma.EDR100())
	c.Seed = cmp.Or(c.Seed, 20230401)
	return c
}

// memTableSize scales the paper's 64MB MemTable/SSTable to the run's data
// volume, preserving the data:memtable ratio (DESIGN.md §2).
func (c Config) memTableSize() int64 {
	data := int64(c.KeyRange) * (keySize + valSize)
	// paper: ~42GB data / 64MB memtable ~= 650; softened for small runs
	return min(max(data/96, 256<<10), 64<<20)
}

// regionSize sizes each memory node's regions: live data plus transient
// amplification headroom (obsolete tables awaiting GC, compaction slack).
func (c Config) regionSize() int64 {
	data := int64(c.KeyRange) * (keySize + valSize)
	return data*6/int64(c.MemoryNodes) + 128<<20
}

// keyOf formats key i (db_bench-style fixed-width decimal, shared by
// workloads and shard boundaries).
func keyOf(i int) []byte { return []byte(fmt.Sprintf("%0*d", keySize, i)) }

// valueOf deterministically generates the value for key i.
func valueOf(i int) []byte {
	v := make([]byte, valSize)
	state := uint64(i)*0x9E3779B97F4A7C15 + 1
	for j := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[j] = 'a' + byte(state%26)
	}
	return v
}

// threadRand returns the per-thread random stream.
func (c Config) threadRand(thread int) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + int64(thread)*7919))
}

// zipf builds the thread's skewed rank generator, or nil for uniform runs.
func (c Config) zipf(r *rand.Rand) *rand.Zipf {
	if c.Zipf <= 1 {
		return nil
	}
	return rand.NewZipf(r, c.Zipf, 1, uint64(c.KeyRange-1))
}

// nextKey draws one key index: uniform when z is nil (the historical
// stream, unchanged), else a Zipf rank scrambled over [0, KeyRange).
func (c Config) nextKey(r *rand.Rand, z *rand.Zipf) int {
	if z == nil {
		return r.Intn(c.KeyRange)
	}
	return int(scramble(z.Uint64()) % uint64(c.KeyRange))
}

// hotKey draws one measured-phase key for hot-banded workloads: with
// probability HotFrac the key comes from a band HotWidth wide whose
// origin starts at 40% of the keyspace and advances by HotShift at each
// third of the thread's run. Only called when HotFrac > 0, so uniform
// workloads keep their historical random stream bit-identical.
func (c Config) hotKey(r *rand.Rand, i, per int) int {
	if r.Float64() >= c.HotFrac {
		return r.Intn(c.KeyRange)
	}
	phase := 0
	if per > 0 {
		phase = min(3*i/per, 2)
	}
	width := max(1, int(float64(c.KeyRange)*c.HotWidth))
	origin := int(float64(c.KeyRange) * (0.4 + float64(phase)*c.HotShift))
	return (origin + r.Intn(width)) % c.KeyRange
}

// scramble is splitmix64's finalizer: it maps the dense hot ranks
// 0,1,2,... onto keys scattered across the whole space, so skew stresses
// the cache rather than one shard.
func scramble(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Workload selects the operation mix the thread loop measures. Every
// workload but FillRandom starts from a preloaded, settled tree; the scan
// workloads count entries, not operations.
type Workload int

const (
	FillRandom Workload = iota // random writes into an empty tree ("fillrandom", Fig 7)
	ReadRandom                 // random point reads ("readrandom", Fig 8)
	Mixed                      // a read with probability Config.ReadRatio, else a write (Fig 10)
	ReadSeq                    // every thread scans the whole table once ("readseq", Fig 11)
	ScanRandom                 // scanLen-entry scans from uniform random start keys ("seekrandom")
	ReadMostly                 // -fig scaleout's read-only mix: 95% Gets, 5% scanLen-entry scans
)

// spawn runs fn(0..n-1) as n simulated entities and waits for all of them.
func spawn(env *sim.Env, n int, fn func(i int)) {
	wg := sim.NewWaitGroup(env)
	for i := 0; i < n; i++ {
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			fn(i)
		})
	}
	wg.Wait()
}

// preload inserts keys [lo, hi) exactly once each (shuffled), with 16
// loader threads, outside the measured window.
func preload(env *sim.Env, cfg Config, db kvDB, lo, hi int, salt int64) {
	const loaders = 16
	perm := rand.New(rand.NewSource(cfg.Seed ^ salt)).Perm(hi - lo)
	spawn(env, loaders, func(t int) {
		s := db.NewSession()
		defer s.Close()
		for i := t; i < len(perm); i += loaders {
			put(s, lo+perm[i])
		}
	})
}

// put panics on write errors: bench never sets StallTimeout or writes to
// closed sessions, so any error here is an engine bug, not load shedding.
func put(s service.Session, k int) {
	if err := s.Put(keyOf(k), valueOf(k)); err != nil {
		panic(fmt.Sprintf("bench: put: %v", err))
	}
}

// thread is one thread of the measured (or warm-up) phase: a session on its
// node's DB, a random stream, and the key slice lo+[0, cfg.KeyRange) it
// draws from. It counts what it did and samples latencies.
type thread struct {
	env *sim.Env
	cfg Config
	lo  int
	s   service.Session
	rnd *rand.Rand
	ops int64
	lat []time.Duration
}

// runThreads fans workload w out over perNode threads on every node, per
// operations each, and returns the operations done and the sampled
// latencies. Thread t of node i draws from random stream i*64+t+stream:
// stream 0 is the measured phase, and the spacing by 64 is what the
// recorded multi-node figures ran with (a single node's threads are
// streams 0..Threads-1 either way).
func runThreads(env *sim.Env, cfg Config, w Workload, nodes []node, perNode, per, stream int) (ops int64, lat []time.Duration) {
	threads := make([]thread, len(nodes)*perNode)
	spawn(env, len(threads), func(k int) {
		i, t := k/perNode, k%perNode
		th := &threads[k]
		*th = thread{env: env, cfg: cfg, lo: nodes[i].lo, rnd: cfg.threadRand(i*64 + t + stream)}
		th.cfg.KeyRange = nodes[i].hi - nodes[i].lo
		th.s = nodes[i].db.NewSession()
		defer th.s.Close()
		switch w {
		case ReadSeq:
			th.scan(nil, math.MaxInt, true)
		case ScanRandom:
			// Per-entry latency is sampled every 4th scan.
			for j := 0; j < max(1, per/scanLen); j++ {
				th.scan(th.key(), scanLen, j%4 == 0)
			}
		default:
			th.opLoop(w, per)
		}
	})
	for _, th := range threads {
		ops += th.ops
		lat = append(lat, th.lat...)
	}
	return ops, lat
}

// key draws a uniform key of the thread's slice.
func (th *thread) key() []byte { return keyOf(th.lo + th.rnd.Intn(th.cfg.KeyRange)) }

// opLoop executes per operations, sampling latency every 32nd. Key choice
// is uniform, Zipf-skewed when cfg.Zipf > 1, or hot-banded when
// cfg.HotFrac > 0.
func (th *thread) opLoop(w Workload, per int) {
	cfg := th.cfg
	z := cfg.zipf(th.rnd)
	for i := 0; i < per; i++ {
		sample := i%32 == 0
		var t0 sim.Time
		if sample {
			t0 = th.env.Now()
		}
		switch {
		case w == ReadMostly && th.rnd.Float64() < 0.05:
			// The coin comes before the key: the stream the recorded
			// -fig scaleout numbers were drawn from.
			th.scan(th.key(), scanLen, false)
		case w == ReadMostly:
			th.s.Get(th.key())
			th.ops++
		default:
			var k int
			if cfg.HotFrac > 0 {
				k = th.lo + cfg.hotKey(th.rnd, i, per)
			} else {
				k = th.lo + cfg.nextKey(th.rnd, z)
			}
			if w == ReadRandom || (w == Mixed && th.rnd.Float64() < cfg.ReadRatio) {
				th.s.Get(keyOf(k)) // misses are expected and counted (db_bench)
			} else {
				put(th.s, k)
			}
			th.ops++
		}
		if sample {
			th.lat = append(th.lat, time.Duration(th.env.Now()-t0))
		}
	}
}

// scan visits up to n entries from start (nil: the first key), counting
// them; a sampled scan records its latency per entry.
func (th *thread) scan(start []byte, n int, sample bool) {
	t0, cnt := th.env.Now(), 0
	th.s.Scan(start, func(k, v []byte) bool {
		cnt++
		return cnt < n
	})
	th.ops += int64(cnt)
	if sample && cnt > 0 {
		th.lat = append(th.lat, time.Duration(th.env.Now()-t0)/time.Duration(cnt))
	}
}
