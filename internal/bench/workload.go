package bench

import (
	"fmt"
	"math/rand"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// Config describes one benchmark run. Zero fields take defaults.
type Config struct {
	System  System
	Threads int

	N        int // total operations in the measured phase
	KeyRange int // distinct keys (db_bench: same as N)
	KeySize  int // default 20 (paper)
	ValSize  int // default 400 (paper)

	ReadRatio float64 // mixed workloads: fraction of reads
	Lambda    int     // dLSM shard count (§VII)
	Bulkload  bool    // level0_stop_writes_trigger = infinity

	// Zipf > 1 skews measured-phase key choice with a Zipf(s=Zipf)
	// distribution whose ranks are scrambled across the key space (so hot
	// keys spread over shards). <= 1 keeps the uniform db_bench draw,
	// bit-identical to the pre-Zipf workloads.
	Zipf float64

	// HotFrac > 0 draws that fraction of measured-phase keys from a hot
	// band HotWidth (fraction of the keyspace) wide; the band's origin
	// advances by HotShift at each third of a thread's run — the
	// shifting-hotspot workload FigRebalance uses. 0 keeps the uniform
	// draw bit-identical to the historical workloads.
	HotFrac  float64
	HotWidth float64
	HotShift float64

	// AutoBalance turns on the elastic-sharding rebalancer (online split/
	// merge/migrate, internal/balance); BalanceInterval overrides its
	// decision tick. Off keeps the routing table static — every other
	// figure byte-identical.
	AutoBalance     bool
	BalanceInterval time.Duration

	// CacheBudgetBytes enables the compute-side hot-KV cache (0 = off,
	// the historical behavior). Passed through to engine.Options.
	CacheBudgetBytes int64

	// PrefetchDepth and PrefetchBytes tune scan readahead (engine.Options
	// passthrough). Depth 0 keeps the engine default of 2; depth 1 is the
	// synchronous ablation (one PrefetchBytes read per table per seek);
	// depth > 1 keeps that many chunk fetches in flight per table iterator.
	// PrefetchBytes 0 keeps the engine's 2MB chunk ceiling.
	PrefetchDepth int
	PrefetchBytes int

	// ScanLen is the entries per range scan in the scanrandom workload
	// (default 100, db_bench seekrandom-style).
	ScanLen int

	DisableNearData bool // dLSM ablation: compact on the compute node instead

	// Durability selects the remote write-ahead log mode (engine.Options):
	// DurabilityNone (default) keeps every figure bit-identical to the
	// pre-WAL runs; Async/Sync log each write over one-sided RDMA.
	Durability engine.Durability
	// WALPerWrite makes the log's commit path stop-and-wait: one record
	// per doorbell, one doorbell in flight (the FigWAL ablation baseline).
	WALPerWrite bool

	// Costs overrides the CPU cost model on every node (engine and
	// memnode). The zero value keeps sim.DefaultCosts — the calibration
	// every existing figure uses. FigOffload sets nonzero IndexByte /
	// FilterKey so the index- and filter-build layers become separately
	// visible in CPU utilization.
	Costs sim.CostModel

	// Offload* push write-path layers to the memory node (engine.Options
	// passthrough, the FigOffload ablation): flush serialization, block
	// index build, and bloom-filter build. All false keeps the flush path
	// bit-identical to the pre-offload figures.
	OffloadFlush      bool
	OffloadIndexBuild bool
	OffloadFilter     bool

	// ReplicationFactor mirrors every durable artifact onto a second
	// memory node (internal/repl, the FigRepl sweep). 0 and 1 keep the
	// single-copy layout bit-identical to the pre-replication figures; 2
	// requires MemoryNodes >= 2 and Durability on, dedicates the last
	// memory node as the passive replica, and acks on quorum. ReplMode
	// picks the SSTable transfer mode: "" or "index" for index-only
	// (primary clones extents to the replica), "log" for log-replay
	// (the compute node reads back and re-writes, the FORTH baseline).
	ReplicationFactor int
	ReplMode          string

	// Cluster shape (Fig 12/14/15); zero means the single-node testbed.
	ComputeNodes int
	MemoryNodes  int
	ComputeCores int
	MemoryCores  int
	Link         rdma.LinkParams

	// Preload is the number of keys filled before a read-only or mixed
	// measurement (0 = KeyRange).
	Preload int

	// Warmup runs that many unmeasured operations of the configured mix
	// before the measured phase (FigRebalance: lets the auto-balancer
	// split the hot shard so the measurement sees the settled geometry).
	// 0 — the default everywhere else — skips the phase entirely.
	Warmup int

	// FaultScenario injects faults during the run: "" (none), "delay"
	// (probabilistic latency on verbs), "flap" (periodic link down/up
	// between compute-0 and memory-0), or "outage" (repeated memnode RPC
	// service crashes — data regions survive, compactions fall back
	// locally). Engine RPC retry policies are shrunk to match the
	// millisecond-scale fault windows.
	FaultScenario string

	// Seed for workload generation.
	Seed int64
}

// Normalize fills defaults; all runners call it first.
func (c Config) Normalize() Config {
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.N == 0 {
		c.N = 200_000
	}
	if c.KeyRange == 0 {
		c.KeyRange = c.N
	}
	if c.KeySize < 12 {
		c.KeySize = 20
	}
	if c.ValSize == 0 {
		c.ValSize = 400
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Preload == 0 {
		c.Preload = c.KeyRange
	}
	if c.Seed == 0 {
		c.Seed = 20230401
	}
	if c.ScanLen == 0 {
		c.ScanLen = 100
	}
	return c
}

// memTableSize scales the paper's 64MB MemTable/SSTable to the run's data
// volume, preserving the data:memtable ratio (DESIGN.md §2).
func (c Config) memTableSize() int64 {
	data := int64(c.KeyRange) * int64(c.KeySize+c.ValSize)
	size := data / 96 // paper: ~42GB data / 64MB memtable ~= 650; softened for small runs
	if size < 256<<10 {
		size = 256 << 10
	}
	if size > 64<<20 {
		size = 64 << 20
	}
	return size
}

// regionSize sizes each memory node's regions: live data plus transient
// amplification headroom (obsolete tables awaiting GC, compaction slack).
func (c Config) regionSize() int64 {
	data := int64(c.KeyRange) * int64(c.KeySize+c.ValSize)
	per := data*6/int64(max(1, c.MemoryNodes)) + 128<<20
	return per
}

// Key formats key i at the configured key size (db_bench-style fixed-width
// decimal, shared by workloads and shard boundaries).
func (c Config) Key(i int) []byte {
	return []byte(fmt.Sprintf("%0*d", c.KeySize, i))
}

// Value deterministically generates the value for key i.
func (c Config) Value(i int) []byte {
	v := make([]byte, c.ValSize)
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
		phase = 3 * i / per
		if phase > 2 {
			phase = 2
		}
	}
	width := int(float64(c.KeyRange) * c.HotWidth)
	if width < 1 {
		width = 1
	}
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
