package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dlsm/internal/cache"
	"dlsm/internal/keys"
	"dlsm/internal/memnode"
	"dlsm/internal/memtable"
	"dlsm/internal/rdma"
	"dlsm/internal/readahead"
	"dlsm/internal/remote"
	"dlsm/internal/repl"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/telemetry"
	"dlsm/internal/version"
	"dlsm/internal/wal"
)

// dbInstanceSeq hands every DB a process-unique id; tmpfs file names are
// namespaced by it so shards sharing one memory node never collide.
var dbInstanceSeq atomic.Uint64

// DB is one LSM-tree over disaggregated memory: MemTables, metadata, table
// indexes and bloom filters live on the compute node; SSTable bytes live on
// the memory node (§III).
type DB struct {
	instanceID uint64

	env  *sim.Env
	opts Options
	bind Binding
	cn   *rdma.Node
	mn   *rdma.Node
	srv  *memnode.Server

	dataMR *rdma.MemoryRegion
	alloc  *remote.Allocator // compute-controlled region (§V-A)
	vs     *version.VersionSet

	// Write state.
	seq      atomic.Uint64
	cur      atomic.Pointer[memtable.MemTable]
	switchMu sync.Mutex // guards MemTable switching and the recent list
	recent   []*memtable.MemTable
	memID    uint64 // under switchMu

	writeMu *sim.Mutex // SwitchLocked only: the global write lock

	// Background coordination.
	mu       *sim.Mutex
	bgCond   *sim.Cond
	imms     []*memtable.MemTable // flush queue, newest last (under mu)
	workGen  uint64               // bumped on every broadcast (under mu)
	closed   bool                 // under mu
	l0count  atomic.Int32
	immCount atomic.Int32
	flushCh  *sim.Chan[*memtable.MemTable]
	gcCh     *sim.Chan[*sstable.Meta]
	gcSeq    atomic.Uint64 // free batches sent to the memory node (freeBatchID)
	notifier *rpc.Notifier
	wg       *sim.WaitGroup

	// Snapshots for compaction safety (explicit snapshots and iterators).
	snapMu sync.Mutex
	snaps  map[keys.Seq]int

	// Registered sessions, for the flush quiesce barrier.
	sessMu   sync.Mutex
	sessions []*Session

	tel   *telemetry.Registry
	stats Stats
	m     dbMetrics

	// kv is the compute-side hot-KV cache; nil when CacheBudgetBytes is 0
	// (all cache methods are nil-receiver-safe).
	kv *cache.Cache

	// raPool recycles registered scan-readahead buffers and scan queue
	// pairs across iterators; created by the first pipelined iterator.
	raPoolMu sync.Mutex
	raPool   *readahead.Pool

	// wal is the remote write-ahead log; nil when Durability is
	// DurabilityNone. walLive gates the write-path hooks: false while
	// recovery replays the log, so replayed writes are not re-logged.
	wal     *wal.Log
	walLive atomic.Bool

	// mirror replicates SSTable extents onto the backup memory node; nil
	// unless Options.Replica is set (internal/repl).
	mirror *repl.Mirror

	// readOnly marks a secondary attachment (OpenSecondary): no WAL, no
	// flush/compaction/GC workers, writes rejected with ErrReadOnly. sec
	// holds the checkpoint-refresh machinery; nil on primaries.
	readOnly bool
	sec      *secondaryState
}

// Open creates a DB on compute node cn backed by the memory node server
// srv, which must already be started. With Durability enabled it stamps a
// fresh epoch on the log slot b names (creating it on demand); a slot that
// cannot be set up — one more shard's WALSize than the memory node's log
// region has room for, say — is the error.
func Open(cn *rdma.Node, srv *memnode.Server, opts Options, b Binding) (*DB, error) {
	return openMode(cn, srv, opts, b, false, false)
}

// openMode is the shared constructor. walRecovering attaches to the
// existing log slot without touching it (Recover replays it first);
// readOnly builds a secondary
// attachment: compute-local state (version set, MemTables, caches) is
// still per-DB — the engine refactor multi-compute scale-out forces —
// but no write-side machinery starts: no WAL, and zero flush, compaction
// or GC workers (a secondary must never flush into, compact, or free the
// remote extents the shard's primary owns).
func openMode(cn *rdma.Node, srv *memnode.Server, opts Options, b Binding, walRecovering, readOnly bool) (*DB, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Replica == srv {
		return nil, fmt.Errorf("engine: Options.Replica must be a different memory node than the primary")
	}
	env := cn.Fabric().Env()
	db := &DB{
		instanceID: dbInstanceSeq.Add(1),
		env:        env,
		opts:       opts,
		bind:       b,
		readOnly:   readOnly,
		cn:         cn,
		mn:         srv.Node(),
		srv:        srv,
		dataMR:     srv.DataMR(),
		alloc:      srv.ComputeAlloc(),
		mu:         sim.NewMutex(env),
		writeMu:    sim.NewMutex(env),
		flushCh:    sim.NewChan[*memtable.MemTable](env, 1024),
		gcCh:       sim.NewChan[*sstable.Meta](env, 65536),
		wg:         sim.NewWaitGroup(env),
		snaps:      map[keys.Seq]int{},
	}
	// The registry runs on the simulation's virtual clock so spans measure
	// virtual time; each DB (shard) gets its own registry, merged at the
	// deployment level via telemetry.Merge.
	db.tel = telemetry.NewRegistry(telemetry.ClockFunc(func() int64 { return int64(env.Now()) }))
	db.stats = newStats(db.tel)
	db.m = newDBMetrics(db.tel)
	// Eagerly register the L0 counters so even short runs surface the
	// per-level compaction section in snapshots.
	db.compactionLevelCounters(0)
	db.bgCond = sim.NewNamedCond(env, db.mu, "engine.bg")
	db.kv = cache.New(cache.Config{
		Budget:        opts.CacheBudgetBytes,
		ProbeCost:     opts.Costs.CacheProbe,
		CopyNSPerByte: opts.Costs.MemcpyByte,
		Charge:        db.charge,
		Metrics: cache.Metrics{
			Hits:          db.stats.CacheHits,
			Misses:        db.stats.CacheMisses,
			NegHits:       db.stats.CacheNegHits,
			Fills:         db.stats.CacheFills,
			Evictions:     db.stats.CacheEvictions,
			Invalidations: db.stats.CacheInvalidations,
			Bytes:         db.stats.CacheBytes,
			HitRate:       db.stats.CacheHitRate,
		},
	})
	db.vs = version.New(db.onObsolete)
	db.notifier = rpc.NotifierFor(cn)

	first := memtable.New(1, 1, 1+keys.Seq(db.seqRangeLen()))
	db.memID = 1
	db.cur.Store(first)
	db.recent = []*memtable.MemTable{first}

	if readOnly {
		return db, nil
	}

	if opts.Replica != nil {
		db.openMirror()
	}

	if opts.Durability != DurabilityNone {
		if err := db.openWAL(walRecovering); err != nil {
			return nil, err
		}
	}

	for i := 0; i < opts.FlushWorkers; i++ {
		db.wg.Add(1)
		db.env.Go(func() { defer db.wg.Done(); db.flusher() })
	}
	for i := 0; i < opts.CompactionWorkers; i++ {
		db.wg.Add(1)
		db.env.Go(func() { defer db.wg.Done(); db.compactionWorker() })
	}
	db.wg.Add(1)
	db.env.Go(func() { defer db.wg.Done(); db.gcWorker() })
	return db, nil
}

// seqRangeLen is how many sequence numbers each MemTable owns: large enough
// that a table fills by size at about the same point its range runs out, so
// the switch lock is almost never contended (§IV).
func (db *DB) seqRangeLen() uint64 {
	if db.opts.SwitchPolicy == SwitchLocked {
		// Conventional switching is size-driven only; ranges are
		// effectively unbounded and truncated at each switch fence.
		return 1 << 40
	}
	n := uint64(db.opts.MemTableSize) / uint64(db.opts.EntrySizeHint)
	if n < 16 {
		n = 16
	}
	return n
}

// CurrentSeq returns the newest assigned sequence number.
func (db *DB) CurrentSeq() keys.Seq { return keys.Seq(db.seq.Load()) }

// Env returns the simulation environment.
func (db *DB) Env() *sim.Env { return db.env }

// Options returns the configuration (read-only).
func (db *DB) Options() Options { return db.opts }

// charge accounts CPU to the compute node.
func (db *DB) charge(d sim.Duration) { db.cn.CPU.Use(d) }

// broadcastLocked wakes stalled writers and idle compaction workers.
// Caller holds db.mu.
func (db *DB) broadcastLocked() {
	db.workGen++
	db.bgCond.Broadcast()
}

// onObsolete routes an unreachable table to the GC worker. It may run
// under version-set or engine locks, so it only enqueues (§V-B) — and
// drops the table's hot-KV cache entries (DropTable takes host mutexes
// only, so it is safe here too). A secondary's view dropping a table
// means the primary compacted it away, not that it is reclaimable: only
// the local cache entries go; the primary's GC owns the remote extent.
func (db *DB) onObsolete(m *sstable.Meta) {
	db.kv.DropTable(m.ID)
	if db.readOnly {
		return
	}
	if !db.gcCh.TrySend(m) {
		panic("engine: gc queue overflow")
	}
}

// Cache returns the hot-KV cache, or nil when CacheBudgetBytes is 0.
func (db *DB) Cache() *cache.Cache { return db.kv }

// scanPool lazily creates the shared readahead pool. Buffers are sized at
// PrefetchBytes — the adaptive window's ceiling — so nearly every chunk
// recycles; only a single entry larger than the window makes the pool
// register a one-off buffer.
func (db *DB) scanPool() *readahead.Pool {
	db.raPoolMu.Lock()
	defer db.raPoolMu.Unlock()
	if db.raPool == nil {
		db.raPool = readahead.NewPool(db.cn, db.mn, db.opts.PrefetchBytes, db.m.scan)
	}
	return db.raPool
}

// registerSnapshot pins seq against compaction dropping versions <= seq.
func (db *DB) registerSnapshot(seq keys.Seq) {
	db.snapMu.Lock()
	db.snaps[seq]++
	db.snapMu.Unlock()
}

func (db *DB) releaseSnapshot(seq keys.Seq) {
	db.snapMu.Lock()
	db.snaps[seq]--
	if db.snaps[seq] == 0 {
		delete(db.snaps, seq)
	}
	db.snapMu.Unlock()
}

// smallestSnapshot is the oldest sequence any live reader may use.
func (db *DB) smallestSnapshot() keys.Seq {
	min := db.CurrentSeq()
	db.snapMu.Lock()
	for s := range db.snaps {
		if s < min {
			min = s
		}
	}
	db.snapMu.Unlock()
	return min
}

// Flush forces the current MemTable to remote memory and waits until the
// flush queue drains — the transactionally consistent checkpoint boundary
// of §VIII.
func (db *DB) Flush() {
	if db.readOnly {
		return // nothing to flush and no workers to drain the queue
	}
	db.switchMu.Lock()
	mt := db.cur.Load()
	if !mt.Empty() {
		// Truncate the retired table's sequence range at a burned fence
		// (as sizeSwitch does): without it the table keeps owning the
		// rest of its range, and post-flush writes with those sequences
		// would route into it through tableFor's straggler path after it
		// has already been serialized — silently lost.
		if db.opts.SwitchPolicy == SwitchSeqRange {
			fence := keys.Seq(db.seq.Add(1))
			mt.TruncateHi(fence + 1)
		}
		db.switchLocked(mt)
	}
	db.switchMu.Unlock()

	db.mu.Lock()
	for len(db.imms) > 0 && !db.closed {
		db.bgCond.Wait()
	}
	db.mu.Unlock()
}

// FenceNow burns a fence sequence and retires the current MemTable the way
// Flush's switch does, but without waiting for the flush queue: it returns
// as soon as the fence is in place. Every write acknowledged before the
// call carries a sequence at or below the returned fence; every write
// admitted after it carries a higher one. The shard rebalancer uses this as
// the cut point when moving a range — a delta copy at Snapshot=fence is
// complete by construction.
func (db *DB) FenceNow() keys.Seq {
	db.switchMu.Lock()
	defer db.switchMu.Unlock()
	mt := db.cur.Load()
	fence := keys.Seq(db.seq.Add(1))
	if db.opts.SwitchPolicy == SwitchSeqRange {
		// Truncate the table's owned range at the fence (sizeSwitch's
		// discipline) so straggler writes with later sequences cannot route
		// into it once it is retired.
		mt.TruncateHi(fence + 1)
	}
	if !mt.Empty() {
		db.switchLocked(mt)
	}
	return fence
}

// WaitForCompactions blocks until no compaction is runnable or running.
// Used by read benchmarks that measure after the tree settles (§XI-C2).
func (db *DB) WaitForCompactions() {
	if db.readOnly {
		return // secondaries never compact
	}
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return
		}
		gen := db.workGen
		db.mu.Unlock()

		if c := db.vs.PickCompaction(db.pickParams()); c != nil {
			db.vs.Release(c)
		} else if db.stats.CompactionsRunning.Load() == 0 {
			return
		}
		db.mu.Lock()
		if db.workGen == gen && !db.closed {
			db.bgCond.Wait()
		}
		db.mu.Unlock()
	}
}

// Close drains background work and stops all engine entities. Sessions
// must be closed by their owners; the fabric is left running.
func (db *DB) Close() {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	db.closed = true
	db.broadcastLocked()
	db.mu.Unlock()

	db.flushCh.Close()
	db.gcCh.Close()
	db.wg.Wait()
	// Reap abandoned scan fetches, then drop the pooled readahead buffers
	// and queue pairs.
	db.raPoolMu.Lock()
	if db.raPool != nil {
		db.raPool.Close()
	}
	db.raPoolMu.Unlock()
	if db.wal != nil {
		// After the flushers: their final RequestRefresh calls must land
		// before the log stops. Close drains staged records but publishes
		// no final checkpoint — the slot stays exactly as durable as the
		// last acknowledged write, which is what Recover replays.
		db.wal.Close()
	}
	if db.mirror != nil {
		// After the WAL: the log's final mirrored refresh may still need
		// replica-address translation. Replica extents stay in place — they
		// are the copy a failover promotes.
		db.mirror.Close()
	}
	if db.sec != nil {
		db.sec.close(db.cn)
	}
}
