// Package bench reproduces the paper's evaluation (§XI): db_bench-style
// workload generators, a virtual-time measurement runner, the six evaluated
// systems as configurations over the shared substrate, and one driver per
// figure. Throughput numbers are virtual-time based and therefore reflect
// the calibrated hardware model, not the host machine.
package bench

import (
	"fmt"
	"time"

	"dlsm/internal/baselines/sherman"
	"dlsm/internal/engine"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/repl"
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

func (s System) String() string {
	switch s {
	case DLSM:
		return "dLSM"
	case DLSMBlock:
		return "dLSM-Block"
	case RocksRDMA8K:
		return "RocksDB-RDMA (8KB)"
	case RocksRDMA2K:
		return "RocksDB-RDMA (2KB)"
	case MemoryRocks:
		return "Memory-RocksDB-RDMA"
	case NovaLSM:
		return "Nova-LSM"
	case Sherman:
		return "Sherman"
	}
	return "unknown"
}

// AllLSM lists the LSM-based systems (everything but Sherman).
var AllLSM = []System{DLSM, RocksRDMA8K, RocksRDMA2K, MemoryRocks, NovaLSM}

// AllSystems lists every comparison system of Fig 7(a)/8.
var AllSystems = []System{DLSM, RocksRDMA8K, RocksRDMA2K, MemoryRocks, NovaLSM, Sherman}

// kvSession is the per-thread operation surface shared by all systems.
type kvSession interface {
	Put(key, value []byte)
	Get(key []byte) ([]byte, error)
	// Scan iterates from start in key order until fn returns false.
	Scan(start []byte, fn func(k, v []byte) bool)
	Close()
}

// kvDB abstracts a system under test.
type kvDB interface {
	NewSession() kvSession
	// Settle flushes buffers and waits for background work to finish
	// (read benchmarks measure after compaction completes, §XI-C2).
	Settle()
	SpaceUsed() int64
	Close()
}

// engineOptions builds the engine configuration for an LSM system.
// lambda > 1 divides the background worker budget across shards; a non-nil
// replica turns replication on.
func engineOptions(sys System, cfg Config, lambda int, replica *memnode.Server) engine.Options {
	o := engine.DLSM()
	// The write buffer and table budget is global; each shard gets its
	// slice so total memory use is lambda-independent.
	per := cfg.memTableSize() / int64(lambda)
	if per < 64<<10 {
		per = 64 << 10
	}
	o.MemTableSize = per
	o.TableSize = per
	o.L1MaxBytes = 8 * o.TableSize
	o.EntrySizeHint = cfg.KeySize + cfg.ValSize
	o.L0StopTrigger = 36
	if cfg.Bulkload {
		o.L0StopTrigger = 0
	}
	o.FlushWorkers = workersPerShard(4, lambda)
	o.CompactionWorkers = workersPerShard(12, lambda)
	o.Subcompactions = 12
	o.ReplyBufSize = 32 << 20
	// Whole-node cache budget; shard.New splits it across the λ shards.
	o.CacheBudgetBytes = cfg.CacheBudgetBytes
	// Elastic sharding (FigRebalance): the balancer watches per-shard load
	// and splits/merges/migrates online. Off keeps the routing table
	// static — every other figure byte-identical.
	o.AutoBalance = cfg.AutoBalance
	if cfg.BalanceInterval > 0 {
		o.BalanceInterval = cfg.BalanceInterval
	}
	// Scan readahead (FigScan sweep); zero keeps the engine defaults
	// (depth 2, adaptive window up to 2MB).
	if cfg.PrefetchDepth > 0 {
		o.PrefetchDepth = cfg.PrefetchDepth
	}
	if cfg.PrefetchBytes > 0 {
		o.PrefetchBytes = cfg.PrefetchBytes
	}
	// Remote WAL mode (FigWAL sweep); WALSize keeps its default of
	// 8 MemTables per shard slot.
	o.Durability = cfg.Durability
	o.WALPerWriteCommit = cfg.WALPerWrite
	// Cost-model override (FigOffload makes build layers CPU-visible).
	if cfg.Costs != (sim.CostModel{}) {
		o.Costs = cfg.Costs
	}
	// Write-path offloading (FigOffload ablation); all-false keeps the
	// flush path bit-identical to the seed figures.
	o.OffloadFlush = cfg.OffloadFlush
	o.OffloadIndexBuild = cfg.OffloadIndexBuild
	o.OffloadFilter = cfg.OffloadFilter
	// Replication (FigRepl sweep): quorum ack across the two copies, the
	// second on the memory node openSystemRange dedicates to the backup
	// role.
	if replica != nil {
		o.Replica = replica
		o.ReplAck = repl.AckQuorum
		if cfg.ReplMode == "log" {
			o.ReplMode = repl.LogReplay
		}
	}

	switch sys {
	case DLSM:
	case DLSMBlock:
		o.Format = sstable.Block
		o.BlockSize = 8 << 10
	case RocksRDMA8K, RocksRDMA2K, MemoryRocks:
		o.Format = sstable.Block
		o.BlockSize = map[System]int{RocksRDMA8K: 8 << 10, RocksRDMA2K: 2 << 10, MemoryRocks: 1}[sys]
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
	if cfg.DisableNearData && sys == DLSM {
		o.CompactionSite = engine.CompactLocal // Fig 12's "no near-data" group
	}
	if cfg.FaultScenario != "" && cfg.FaultScenario != "none" {
		o.CompactRPC = faultCompactPolicy
		o.FreeRPC = faultFreePolicy
	}
	return o
}

func workersPerShard(total, lambda int) int {
	n := total / lambda
	if n < 1 {
		n = 1
	}
	return n
}

// lambdaFor returns the shard count of a system under cfg: Nova-LSM always
// runs its 64 subranges; dLSM uses cfg.Lambda (§VII).
func lambdaFor(sys System, cfg Config) int {
	if sys == NovaLSM {
		return 64
	}
	if sys == DLSM || sys == DLSMBlock {
		if cfg.Lambda > 1 {
			return cfg.Lambda
		}
	}
	return 1
}

// openSystem instantiates a system on compute node cn over servers,
// covering the full key range.
func openSystem(sys System, cfg Config, cn *rdma.Node, servers []*memnode.Server) kvDB {
	return openSystemRange(sys, cfg, cn, servers, 0, cfg.KeyRange)
}

// openSystemRange opens a system covering user keys [lo, hi) — the slice a
// compute node owns in cluster runs (§IX).
func openSystemRange(sys System, cfg Config, cn *rdma.Node, servers []*memnode.Server, lo, hi int) kvDB {
	if sys == Sherman {
		t := sherman.New(cn, servers[0], sherman.DefaultOptions())
		return &shermanDB{t: t}
	}
	lambda := lambdaFor(sys, cfg)
	// With replication on, the last memory node is the passive backup:
	// shards spread over the others and every durable artifact mirrors
	// onto it (engine.Options.Replica).
	primaries := servers
	var replica *memnode.Server
	if cfg.ReplicationFactor > 1 && len(servers) > 1 && (sys == DLSM || sys == DLSMBlock) {
		primaries = servers[:len(servers)-1]
		replica = servers[len(servers)-1]
	}
	// Spreading data over m memory nodes requires at least m shards
	// (Fig 14a scales memory nodes with lambda = m).
	if len(primaries) > lambda {
		lambda = len(primaries)
	}
	var bounds [][]byte
	for j := 1; j < lambda; j++ {
		bounds = append(bounds, cfg.Key(lo+(hi-lo)*j/lambda))
	}
	db, err := shard.New(cn, primaries, lambda, bounds, engineOptions(sys, cfg, lambda, replica))
	if err != nil {
		panic(err) // bench geometries are derived, never user input
	}
	return &lsmDB{db: db, servers: uniqueServers(servers)}
}

func uniqueServers(servers []*memnode.Server) []*memnode.Server {
	seen := map[*memnode.Server]bool{}
	var out []*memnode.Server
	for _, s := range servers {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// --- LSM adapter ------------------------------------------------------------

type lsmDB struct {
	db      *shard.DB
	servers []*memnode.Server
}

func (l *lsmDB) NewSession() kvSession { return &lsmSession{s: l.db.NewSession()} }
func (l *lsmDB) Settle() {
	l.db.Flush()
	l.db.WaitForCompactions()
}

// SpaceUsed queries each distinct memory node once (shards share servers,
// so summing per-shard engine numbers would multiply-count them).
func (l *lsmDB) SpaceUsed() int64 {
	var n int64
	for _, s := range l.servers {
		n += s.ComputeUsed() + s.SelfUsed() + s.FSUsed()
	}
	return n
}
func (l *lsmDB) Close() { l.db.Close() }

// TelemetrySnapshot exposes the merged per-shard engine metrics; the bench
// runner combines it with the fabric's registry into Result.Metrics.
func (l *lsmDB) TelemetrySnapshot() telemetry.Snapshot {
	return l.db.TelemetrySnapshot()
}

type lsmSession struct{ s *shard.Session }

// Put panics on write errors: bench never sets StallTimeout or writes to
// closed sessions, so any error here is an engine bug, not load shedding.
func (s *lsmSession) Put(k, v []byte) {
	if err := s.s.Put(k, v); err != nil {
		panic(fmt.Sprintf("bench: put: %v", err))
	}
}
func (s *lsmSession) Get(k []byte) ([]byte, error) {
	v, err := s.s.Get(k)
	if err == engine.ErrNotFound {
		return nil, errNotFound
	}
	return v, err
}

func (s *lsmSession) Scan(start []byte, fn func(k, v []byte) bool) {
	it := s.s.NewIterator()
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

func (s *lsmSession) Close() { s.s.Close() }

// --- Sherman adapter ----------------------------------------------------------

type shermanDB struct{ t *sherman.Tree }

func (d *shermanDB) NewSession() kvSession { return &shermanSession{s: d.t.NewSession()} }
func (d *shermanDB) Settle()               {}
func (d *shermanDB) SpaceUsed() int64      { return d.t.SpaceUsed() }
func (d *shermanDB) Close()                {}

type shermanSession struct{ s *sherman.Session }

func (s *shermanSession) Put(k, v []byte) {
	if err := s.s.Put(k, v); err != nil {
		panic(fmt.Sprintf("sherman put: %v", err))
	}
}

func (s *shermanSession) Get(k []byte) ([]byte, error) {
	v, err := s.s.Get(k)
	if err == sherman.ErrNotFound {
		return nil, errNotFound
	}
	return v, err
}

func (s *shermanSession) Scan(start []byte, fn func(k, v []byte) bool) {
	s.s.Scan(start, fn)
}

func (s *shermanSession) Close() { s.s.Close() }

type notFoundError struct{}

func (notFoundError) Error() string { return "bench: key not found" }

var errNotFound = notFoundError{}

// deployment builds the fabric, compute and memory nodes for one run.
func deployment(cfg Config) (*sim.Env, *rdma.Fabric, []*rdma.Node, []*memnode.Server) {
	env := sim.NewEnv()
	link := cfg.Link
	if link == (rdma.LinkParams{}) {
		link = rdma.EDR100()
	}
	fab := rdma.NewFabric(env, link)
	computeNodes := max(1, cfg.ComputeNodes)
	memoryNodes := max(1, cfg.MemoryNodes)
	computeCores := cfg.ComputeCores
	if computeCores == 0 {
		computeCores = 24
	}
	memoryCores := cfg.MemoryCores
	if memoryCores == 0 {
		memoryCores = 12
	}
	var cns []*rdma.Node
	for i := 0; i < computeNodes; i++ {
		cns = append(cns, fab.AddNode(fmt.Sprintf("compute-%d", i), computeCores))
	}
	var servers []*memnode.Server
	mcfg := memnode.DefaultConfig()
	if cfg.Costs != (sim.CostModel{}) {
		mcfg.Costs = cfg.Costs
	}
	mcfg.ComputeRegionSize = cfg.regionSize()
	mcfg.SelfRegionSize = cfg.regionSize()
	mcfg.Subcompactions = 12
	// The log region registers lazily on first OpenLog, so runs without
	// durability pay nothing; with it on, size for λ slots of 8 MemTables.
	if cfg.Durability == engine.DurabilityNone {
		mcfg.LogRegionSize = 0
	} else {
		mcfg.LogRegionSize = 8*cfg.memTableSize() + 64<<20
	}
	for i := 0; i < memoryNodes; i++ {
		mn := fab.AddNode(fmt.Sprintf("memory-%d", i), memoryCores)
		srv := memnode.NewServer(mn, mcfg)
		srv.Start()
		servers = append(servers, srv)
	}
	applyFaults(env, fab, cns, servers, cfg)
	return env, fab, cns, servers
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
