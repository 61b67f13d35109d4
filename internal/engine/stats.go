package engine

import (
	"fmt"

	"dlsm/internal/flush"
	"dlsm/internal/readahead"
	"dlsm/internal/sstable"
	"dlsm/internal/telemetry"
)

// Stats holds the engine's observability counters, backed by the DB's
// telemetry registry (so they appear in Registry.Snapshot() alongside the
// histograms). All fields are safe for concurrent reads while the DB runs.
type Stats struct {
	Writes      *telemetry.Counter
	Reads       *telemetry.Counter
	MemSwitches *telemetry.Counter

	Flushes      *telemetry.Counter
	BytesFlushed *telemetry.Counter

	RemoteCompactions   *telemetry.Counter
	LocalCompactions    *telemetry.Counter
	CompactionsRunning  *telemetry.Gauge
	CompactionBytesIn   *telemetry.Counter
	CompactionBytesOut  *telemetry.Counter
	CompactionTime      *telemetry.Counter // virtual ns
	CompactionFallbacks *telemetry.Counter // remote exhausted retries -> local
	CompactionErrors    *telemetry.Counter // compactions abandoned (will re-pick)

	FlushErrors *telemetry.Counter // flush attempts that failed and retried
	GCDropped   *telemetry.Counter // free batches dropped after retries

	// The near-data flush of a DB with a log. Both stay zero on a DB
	// without one: its flush path never issues flush_build RPCs.
	OffloadedFlushes *telemetry.Counter // flushes the memory node built from the log ring
	OffloadFallbacks *telemetry.Counter // flush_build gave up -> compute-local build

	Stalls       *telemetry.Counter
	StallTime    *telemetry.Counter // virtual ns
	StallL0Time  *telemetry.Counter // stalled on level0_stop_writes_trigger
	StallImmTime *telemetry.Counter // stalled on maxImmutables (flush backlog)

	TablesFreed    *telemetry.Counter
	RemoteFreeRPCs *telemetry.Counter

	// Remote write-ahead log (internal/wal). All stay zero when
	// Durability is DurabilityNone: the log is never constructed.
	WALAppends     *telemetry.Counter // records staged for the log
	WALBytes       *telemetry.Counter // record bytes appended remotely
	WALDoorbells   *telemetry.Counter // RDMA writes completed for record data
	WALTruncations *telemetry.Counter // checkpoint publishes that freed ring space
	WALCkptSkips   *telemetry.Counter // checkpoint blobs too large for their slot
	WALRingStalls  *telemetry.Counter // appends that waited for ring space
	WALReplayed    *telemetry.Counter // entries re-applied by Recover

	// Hot-KV cache (internal/cache). All stay zero when CacheBudgetBytes
	// is 0: the cache is never constructed.
	CacheHits          *telemetry.Counter
	CacheMisses        *telemetry.Counter
	CacheNegHits       *telemetry.Counter // misses answered by the negative cache
	CacheFills         *telemetry.Counter
	CacheEvictions     *telemetry.Counter
	CacheInvalidations *telemetry.Counter // entries dropped with obsoleted tables
	CacheBytes         *telemetry.Gauge   // bytes currently cached
	CacheHitRate       *telemetry.Gauge   // hits/(hits+misses), basis points
}

func newStats(reg *telemetry.Registry) Stats {
	return Stats{
		Writes:      reg.Counter("engine.writes"),
		Reads:       reg.Counter("engine.reads"),
		MemSwitches: reg.Counter("engine.memtable.switches"),

		Flushes:      reg.Counter("engine.flushes"),
		BytesFlushed: reg.Counter("engine.flush.bytes"),

		RemoteCompactions:  reg.Counter("engine.compaction.remote"),
		LocalCompactions:   reg.Counter("engine.compaction.local"),
		CompactionsRunning: reg.Gauge("engine.compaction.running"),
		CompactionBytesIn:  reg.Counter("engine.compaction.bytes_in"),
		CompactionBytesOut: reg.Counter("engine.compaction.bytes_out"),
		CompactionTime:     reg.Counter("engine.compaction.time_ns"),
		// Named without the engine. prefix: this is the headline
		// graceful-degradation signal (remote compaction gave up after
		// retries and ran locally).
		CompactionFallbacks: reg.Counter("compaction.fallback"),
		CompactionErrors:    reg.Counter("engine.compaction.errors"),

		FlushErrors: reg.Counter("engine.flush.errors"),
		GCDropped:   reg.Counter("engine.gc.dropped_batches"),

		OffloadedFlushes: reg.Counter("offload.flushes"),
		// Named without the engine. prefix, like compaction.fallback: the
		// graceful-degradation signal for the offloaded write path.
		OffloadFallbacks: reg.Counter("offload.fallback"),

		Stalls:       reg.Counter("engine.stalls"),
		StallTime:    reg.Counter("engine.stall.time_ns"),
		StallL0Time:  reg.Counter("engine.stall.l0_time_ns"),
		StallImmTime: reg.Counter("engine.stall.imm_time_ns"),

		TablesFreed:    reg.Counter("engine.gc.tables_freed"),
		RemoteFreeRPCs: reg.Counter("engine.gc.remote_free_rpcs"),

		WALAppends:     reg.Counter("wal.appends"),
		WALBytes:       reg.Counter("wal.append_bytes"),
		WALDoorbells:   reg.Counter("wal.doorbells"),
		WALTruncations: reg.Counter("wal.truncations"),
		WALCkptSkips:   reg.Counter("wal.ckpt_skips"),
		WALRingStalls:  reg.Counter("wal.ring_stalls"),
		WALReplayed:    reg.Counter("wal.replayed"),

		CacheHits:          reg.Counter("cache.hits"),
		CacheMisses:        reg.Counter("cache.misses"),
		CacheNegHits:       reg.Counter("cache.neg_hits"),
		CacheFills:         reg.Counter("cache.fills"),
		CacheEvictions:     reg.Counter("cache.evictions"),
		CacheInvalidations: reg.Counter("cache.invalidations"),
		CacheBytes:         reg.Gauge("cache.bytes"),
		CacheHitRate:       reg.Gauge("cache.hit_rate_bp"),
	}
}

// dbMetrics bundles the latency histograms and path counters the engine
// reports beyond the headline Stats counters.
type dbMetrics struct {
	clock telemetry.Clock

	writeLat   *telemetry.Histogram // engine.write.latency_ns
	readLat    *telemetry.Histogram // engine.read.latency_ns
	switchWait *telemetry.Histogram // engine.memtable.switch_wait_ns
	flushLat   *telemetry.Histogram // engine.flush.latency_ns

	walGroup *telemetry.Histogram // wal.group_records: records per doorbell

	switchContended *telemetry.Counter // writers that hit the switch lock
	memHits         *telemetry.Counter // reads answered by the MemTable
	immHits         *telemetry.Counter // reads answered by an immutable table

	reader sstable.ReaderMetrics
	flush  flush.Metrics
	scan   readahead.Metrics
}

func newDBMetrics(reg *telemetry.Registry) dbMetrics {
	return dbMetrics{
		clock:      reg.Clock(),
		writeLat:   reg.Histogram("engine.write.latency_ns"),
		readLat:    reg.Histogram("engine.read.latency_ns"),
		switchWait: reg.Histogram("engine.memtable.switch_wait_ns"),
		flushLat:   reg.Histogram("engine.flush.latency_ns"),
		walGroup:   reg.Histogram("wal.group_records"),

		switchContended: reg.Counter("engine.memtable.switch_contended"),
		memHits:         reg.Counter("engine.read.memtable_hits"),
		immHits:         reg.Counter("engine.read.immtable_hits"),

		reader: sstable.ReaderMetrics{
			BloomNegatives: reg.Counter("engine.read.bloom_negatives"),
			Fetches:        reg.Counter("engine.read.table_fetches"),
			FetchedBytes:   reg.Counter("engine.read.table_fetch_bytes"),
		},
		flush: flush.Metrics{
			BuffersInFlight:  reg.Gauge("flush.buffers_inflight"),
			BuffersAllocated: reg.Counter("flush.buffers_allocated"),
			ReapWaits:        reg.Counter("flush.reap_waits"),
			BytesSubmitted:   reg.Counter("flush.bytes_submitted"),
		},
		scan: readahead.Metrics{
			Inflight:        reg.Gauge("scan.prefetch_inflight"),
			StallNS:         reg.Counter("scan.stall_ns"),
			BytesPrefetched: reg.Counter("scan.bytes_prefetched"),
			BytesWasted:     reg.Counter("scan.bytes_wasted"),
		},
	}
}

// compactionLevelCounters returns the per-level byte counters for a
// compaction out of level (get-or-create; names are stable so repeated
// compactions of the same level share counters).
func (db *DB) compactionLevelCounters(level int) (in, out *telemetry.Counter) {
	prefix := fmt.Sprintf("engine.compaction.L%d.", level)
	return db.tel.Counter(prefix + "bytes_in"), db.tel.Counter(prefix + "bytes_out")
}

// Stats exposes the live counters.
func (db *DB) Stats() *Stats { return &db.stats }

// Telemetry returns the DB's metrics registry. Its clock is the simulation's
// virtual clock, so latency histograms are in virtual nanoseconds.
func (db *DB) Telemetry() *telemetry.Registry { return db.tel }

// SpaceUsed reports the remote-memory footprint: compute-controlled
// allocations plus the memory node's self-controlled allocations plus
// tmpfs files (§XI-C3's space comparison).
func (db *DB) SpaceUsed() int64 {
	return db.alloc.Used() + db.srv.SelfUsed() + db.srv.FSUsed()
}

// LevelSizes returns the current per-level (files, bytes).
func (db *DB) LevelSizes() [][2]int64 {
	v := db.vs.Current()
	defer v.Unref()
	out := make([][2]int64, len(v.Levels))
	for i, level := range v.Levels {
		var bytes int64
		for _, f := range level {
			bytes += f.Size
		}
		out[i] = [2]int64{int64(len(level)), bytes}
	}
	return out
}
