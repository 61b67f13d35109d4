// Package bench reproduces the paper's evaluation (§XI): db_bench-style
// workload generators, the six evaluated systems as configurations over the
// shared substrate, one virtual-time runner that measures a point on any
// topology, and one table of figures run by a single loop. Throughput
// numbers are virtual-time based and therefore reflect the calibrated
// hardware model, not the host machine.
package bench

import (
	"fmt"
	"time"

	"dlsm/internal/baselines/sherman"
	"dlsm/internal/engine"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/service"
	"dlsm/internal/shard"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/telemetry"
)

// System identifies one evaluated system (§XI-A).
type System int

// The evaluated systems.
const (
	DLSM        System = iota // this paper
	DLSMBlock                 // dLSM with 8KB block SSTables (Fig 13 ablation)
	RocksRDMA8K               // Baseline #1: RocksDB port, 8KB blocks
	RocksRDMA2K               // Baseline #2: RocksDB port, 2KB blocks
	MemoryRocks               // Baseline #3: entry-sized blocks, cached index
	NovaLSM                   // Baseline #4: tmpfs-RPC storage, 64 subranges
	Sherman                   // Baseline #5: disaggregated B+-tree
)

var systemNames = [...]string{
	DLSM: "dLSM", DLSMBlock: "dLSM-Block", RocksRDMA8K: "RocksDB-RDMA (8KB)", RocksRDMA2K: "RocksDB-RDMA (2KB)",
	MemoryRocks: "Memory-RocksDB-RDMA", NovaLSM: "Nova-LSM", Sherman: "Sherman",
}

func (s System) String() string { return systemNames[s] }

// AllLSM lists the LSM-based systems (everything but Sherman).
var AllLSM = []System{DLSM, RocksRDMA8K, RocksRDMA2K, MemoryRocks, NovaLSM}

// AllSystems lists every comparison system of Fig 7(a)/8.
var AllSystems = []System{DLSM, RocksRDMA8K, RocksRDMA2K, MemoryRocks, NovaLSM, Sherman}

// kvDB abstracts a system under test. Its sessions are the service tier's,
// so the thread loop and a service.Tier drive the same surface.
type kvDB interface {
	NewSession() service.Session
	// Settle flushes buffers and waits for background work to finish
	// (read benchmarks measure after compaction completes, §XI-C2).
	Settle()
	TelemetrySnapshot() telemetry.Snapshot
	Close()
}

// shards resolves a run's shard geometry: λ per DB — Nova-LSM always runs
// its 64 subranges, dLSM uses cfg.Lambda (§VII), and spreading an LSM's data
// over m memory nodes takes at least m shards (Fig 14a scales memory nodes
// with lambda = m) — and whether the last memory node is held back as the
// passive replica every durable artifact mirrors onto (internal/repl).
func (c Config) shards() (lambda int, replicated bool) {
	m := c.MemoryNodes
	native := c.System == DLSM || c.System == DLSMBlock
	if c.ReplicationFactor > 1 && m > 1 && native {
		m, replicated = m-1, true
	}
	switch {
	case c.System == Sherman:
		// One tree on one memory node, whatever m: on a sliced cluster it
		// is the §IX rotation at λ = 1 that puts tree i on memory node i mod m.
		return 1, false
	case c.System == NovaLSM:
		lambda = 64
	case native:
		lambda = c.Lambda
	}
	return max(1, lambda, m), replicated
}

// engineOptions builds the engine configuration of cfg.System at lambda
// shards per DB (lambda > 1 divides the background worker budget across
// shards), then applies the point's own delta, cfg.Options.
func engineOptions(cfg Config, lambda int) engine.Options {
	o := engine.DLSM()
	// The write buffer and table budget is global; each shard gets its
	// slice so total memory use is lambda-independent.
	per := max(cfg.memTableSize()/int64(lambda), 64<<10)
	o.MemTableSize = per
	o.TableSize = per
	o.L1MaxBytes = 8 * o.TableSize
	o.EntrySizeHint = keySize + valSize
	o.L0StopTrigger = 36
	o.FlushWorkers = max(1, 4/lambda)
	o.CompactionWorkers = max(1, 12/lambda)
	o.Subcompactions = 12

	switch cfg.System {
	case DLSMBlock:
		o.Format = sstable.Block
		o.BlockSize = 8 << 10
	case RocksRDMA8K, RocksRDMA2K, MemoryRocks:
		o.Format = sstable.Block
		o.BlockSize = map[System]int{RocksRDMA8K: 8 << 10, RocksRDMA2K: 2 << 10, MemoryRocks: 1}[cfg.System]
		o.Transport = engine.TransportFS
		o.CompactionSite = engine.CompactLocal
		o.AsyncFlush = false
		o.SwitchPolicy = engine.SwitchLocked
		o.WritePathExtra = 900 * time.Nanosecond
	case NovaLSM:
		o.Format = sstable.Block
		o.BlockSize = 8 << 10
		o.Transport = engine.TransportTmpfsRPC
		o.CompactionSite = engine.CompactLocal
		o.AsyncFlush = false
		o.SwitchPolicy = engine.SwitchLocked
		// Nova-LSM's write path routes through its range index and LTC
		// machinery; measured against dLSM's lean path in §XI-C1.
		o.WritePathExtra = 4500 * time.Nanosecond
	}
	if cfg.FaultScenario != "" && cfg.FaultScenario != "none" {
		o.CompactRPC = faultCompactPolicy
		o.FreeRPC = faultFreePolicy
	}
	if cfg.Options != nil {
		cfg.Options(&o)
	}
	return o
}

// openDB opens one DB of a point's topology on compute node cn: λ shards
// split evenly over user keys [lo, hi), the slice this DB owns (§IX), or a
// Sherman tree on the placement's first memory node. A secondary is brought
// up to date with the primary's published checkpoint before it serves.
func openDB(cfg Config, cn *rdma.Node, role shard.Role, place shard.Placement, lo, hi int, opts engine.Options) kvDB {
	if cfg.System == Sherman {
		return shermanDB{sherman.New(cn, place.Servers[0], sherman.DefaultOptions())}
	}
	place.Boundaries = shard.UniformBoundaries(place.Lambda, hi-lo, func(i int) []byte { return keyOf(lo + i) })
	db, err := shard.Open(cn, role, place, opts)
	if err == nil && role == shard.RoleSecondary {
		err = db.RefreshView()
	}
	if err != nil {
		panic(fmt.Sprintf("bench: open on %s: %v", cn.Name, err)) // bench geometries are derived, never user input
	}
	return lsmDB{db}
}

type lsmDB struct{ *shard.DB }

func (l lsmDB) NewSession() service.Session { return lsmSession{l.DB.NewSession()} }
func (l lsmDB) Settle() {
	l.Flush()
	l.WaitForCompactions()
}

type lsmSession struct{ *shard.Session }

func (s lsmSession) Scan(start []byte, fn func(k, v []byte) bool) {
	it := s.NewIterator()
	defer it.Close()
	if start == nil {
		it.First()
	} else {
		it.SeekGE(start)
	}
	for ; it.Valid(); it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

type shermanDB struct{ t *sherman.Tree }

func (d shermanDB) NewSession() service.Session           { return shermanSession{d.t.NewSession()} }
func (d shermanDB) Settle()                               {}
func (d shermanDB) TelemetrySnapshot() telemetry.Snapshot { return telemetry.Snapshot{} }
func (d shermanDB) Close()                                {}

type shermanSession struct{ *sherman.Session }

func (s shermanSession) Scan(start []byte, fn func(k, v []byte) bool) { s.Session.Scan(start, fn) }

// deployment builds the fabric, compute and memory nodes for one run. What
// the memory nodes must know of the engine configuration — the CPU cost
// model, and whether anything will open a log — is read from opts, the
// options the run's engines will be opened with.
func deployment(cfg Config, opts engine.Options) (*sim.Env, *rdma.Fabric, []*rdma.Node, []*memnode.Server) {
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, cfg.Link)
	var cns []*rdma.Node
	for i := 0; i < cfg.ComputeNodes; i++ {
		cns = append(cns, fab.AddNode(fmt.Sprintf("compute-%d", i), cfg.ComputeCores))
	}
	var servers []*memnode.Server
	mcfg := memnode.DefaultConfig()
	mcfg.Costs = opts.Costs
	mcfg.ComputeRegionSize = cfg.regionSize()
	mcfg.SelfRegionSize = cfg.regionSize()
	mcfg.Subcompactions = 12
	// The log region registers lazily on first OpenLog, so runs without
	// durability pay nothing; with it on, size for λ slots of 8 MemTables.
	if opts.Durability == engine.DurabilityNone {
		mcfg.LogRegionSize = 0
	} else {
		mcfg.LogRegionSize = 8*cfg.memTableSize() + 64<<20
	}
	for i := 0; i < cfg.MemoryNodes; i++ {
		mn := fab.AddNode(fmt.Sprintf("memory-%d", i), cfg.MemoryCores)
		srv := memnode.NewServer(mn, mcfg)
		srv.Start()
		servers = append(servers, srv)
	}
	applyFaults(env, fab, cns, servers, cfg)
	return env, fab, cns, servers
}
