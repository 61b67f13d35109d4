// Package engine implements the dLSM storage engine on one compute node
// backed by one memory node: the paper's write path with sequence-range
// MemTable switching (§IV), asynchronous flushing (§X-C), near-data or
// compute-side compaction (§V), byte-addressable or block SSTables (§VI),
// snapshot-isolated reads and scans, stall control and ownership-aware
// garbage collection (§V-B).
//
// dLSM proper and the LSM baselines (RocksDB-RDMA ports, Nova-LSM
// adaptation, the dLSM-Block ablation) are configurations of this engine:
// they differ only in table format, compaction site, flush I/O mode, the
// MemTable switch protocol, and the storage transport.
package engine

import (
	"fmt"
	"time"

	"dlsm/internal/memnode"
	"dlsm/internal/repl"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

// SwitchPolicy selects how writers decide when a MemTable becomes immutable.
type SwitchPolicy int

const (
	// SwitchSeqRange is dLSM's protocol (§IV): each MemTable owns a
	// pre-assigned sequence-number range; only boundary writers contend.
	SwitchSeqRange SwitchPolicy = iota
	// SwitchLocked is the conventional design: writers serialize sequence
	// assignment and the full-table check through a global write mutex,
	// paying syncOverhead of CPU inside the critical section.
	SwitchLocked
)

// CompactionSite selects where compaction executes.
type CompactionSite int

const (
	// CompactNearData offloads compaction to the memory node (§V).
	CompactNearData CompactionSite = iota
	// CompactLocal merges on the compute node, fetching every input byte
	// and writing back every output byte over the network.
	CompactLocal
)

// Transport selects how table bytes reach the memory node.
type Transport int

const (
	// TransportNative writes straight to pre-registered remote extents
	// with one-sided verbs (dLSM).
	TransportNative Transport = iota
	// TransportFS goes through the RDMA-oriented file system used to port
	// RocksDB (§XI-A): block-aligned, synchronous, one extra copy.
	TransportFS
	// TransportTmpfsRPC does file I/O via two-sided RPCs to a tmpfs
	// service on the memory node (the Nova-LSM adaptation).
	TransportTmpfsRPC
)

// Durability selects what a completed write guarantees when the compute
// node crashes (§VIII). SSTable bytes always survive in remote memory;
// the write-ahead log (internal/wal) extends that to MemTable contents.
type Durability int

const (
	// DurabilityNone is the historical behavior and the default: no log.
	// Acknowledged writes still in MemTables die with the compute node.
	DurabilityNone Durability = iota
	// DurabilityAsync appends every write to the remote log but
	// acknowledges before the append is durable: the crash-loss window is
	// one doorbell round trip instead of a whole MemTable.
	DurabilityAsync
	// DurabilitySync acknowledges only after the write's log record is
	// durable in remote memory; Recover restores every acknowledged write.
	DurabilitySync
)

// FlushAblation says how much of a durable DB's flush the memory node does.
// It exists for -fig offload's per-layer columns; products leave it zero.
type FlushAblation int

const (
	// FlushNearData is the flush path of every DB that has a log and the
	// native transport: the memory node builds the table — data, block
	// index and bloom filter — from its resident log ring, in the key order
	// the compute node ships (DESIGN.md §11).
	FlushNearData FlushAblation = iota
	// FlushOnCompute builds and writes the whole table from the compute
	// node, as a DB without a log always does (-fig offload `off`).
	FlushOnCompute
	// FlushDataOnly has the memory node serialize the data only; the compute
	// node builds index and filter into the reserved footer space (`flush`).
	FlushDataOnly
	// FlushDataAndIndex leaves only the filter to the compute node
	// (`flush+index`).
	FlushDataAndIndex
)

// Options configures a DB.
type Options struct {
	Format     sstable.Format
	BlockSize  int // Block format target block size
	BitsPerKey int // bloom filter bits per key (0 means the default 10; negative disables)

	MemTableSize  int64 // switch threshold
	EntrySizeHint int   // expected bytes/entry, sizes the seq range
	TableSize     int64 // SSTable target size

	L0CompactTrigger int // files in L0 triggering compaction
	L0StopTrigger    int // files in L0 stalling writers; <=0 means never (bulkload)
	L1MaxBytes       int64

	FlushWorkers      int
	CompactionWorkers int
	Subcompactions    int

	SwitchPolicy   SwitchPolicy
	CompactionSite CompactionSite
	Transport      Transport
	AsyncFlush     bool // overlap serialization with RDMA writes (§X-C)

	// FlushAblation moves layers of a durable DB's flush back to the
	// compute node. A DB without a log or off the native transport flushes
	// from the compute node whatever this says.
	FlushAblation FlushAblation

	PrefetchBytes int // range-scan read-ahead

	// PrefetchDepth is how many readahead chunk fetches a range scan keeps
	// in flight per table iterator (the flush pipeline's multi-buffer
	// design applied to the read path, internal/readahead). What an
	// iterator has fetched but not yet read stays within readahead.Floor
	// plus half of what it has read since the seek, split evenly over the
	// resident chunk and the fetches in flight, so chunks grow with the
	// scan up to PrefetchBytes and a deeper pipeline means smaller chunks,
	// not more abandoned bytes. Default 2. 1 is the ablation: one
	// synchronous PrefetchBytes chunk per table per seek.
	// Only the native one-sided transport pipelines; FS and tmpfs reads
	// stay synchronous at any depth.
	PrefetchDepth int

	// CacheBudgetBytes is the byte budget of the compute-side hot-KV cache
	// (internal/cache). 0 — the default — disables caching entirely, so
	// every figure that predates the cache is unchanged unless it opts in.
	CacheBudgetBytes int64

	// Durability selects the write-ahead logging mode (§VIII). The default,
	// DurabilityNone, allocates no log and leaves the write path untouched.
	Durability Durability

	// WALSize is the byte size of this DB's remote log slot (header +
	// checkpoint slots + ring). Filled with 8×MemTableSize only when
	// Durability is enabled; a ring much smaller than the flush backlog
	// self-corrects by stalling appends and kicking a MemTable switch.
	WALSize int64

	// WALPerWriteCommit narrows the log's commit pipeline to stop-and-wait:
	// one record per RDMA doorbell, one doorbell in flight. Exists for the
	// durability ablation (fig wal).
	WALPerWriteCommit bool

	// Replica is the backup memory node: set, every durable artifact of
	// this DB — the WAL ring, checkpoint slots, SSTable extents and the
	// shard lease word — is mirrored onto it (internal/repl); nil — the
	// default — keeps the single-copy layout and allocates nothing extra.
	// It must be a different server than the primary, and needs
	// Durability on and the native transport. No LSM runs there: the
	// replica is passive registered memory receiving chained one-sided
	// writes.
	Replica *memnode.Server

	// ReplAck selects when a replicated write acknowledges: AckPrimary
	// (the default) keeps today's ack point and mirrors best-effort;
	// AckQuorum/AckAll ack only after the replica copy is durable too
	// (they require Replica).
	ReplAck repl.AckPolicy

	// ReplMode selects how SSTable bytes reach the replica: IndexOnly
	// (the default) ships built extents primary→replica; LogReplay
	// models a backup that rebuilds tables from its log copy (it
	// requires Replica).
	ReplMode repl.Mode

	// ReplTornHook, when set, runs after the replica checkpoint header
	// flips and before the primary's — the torn-dual-flip window. Tests
	// crash the publisher here to exercise slot-pair arbitration.
	ReplTornHook func()

	// StallTimeout bounds how long Put/Delete/Apply may block on a write
	// stall (flush backlog or L0 stop trigger) before returning ErrStalled.
	// 0 — the default — waits indefinitely, the pre-v2 behavior. The
	// timeout is checked each time background progress wakes the writer.
	StallTimeout time.Duration

	// AutoBalance enables the elastic λ-sharding rebalancer (consumed by
	// the shard layer, ignored by a single engine): a background entity on
	// the virtual clock that watches per-shard load and splits hot shards,
	// merges cold adjacent ones, and migrates ranges between memory nodes.
	// Default off — the static λ geometry then behaves exactly as before.
	AutoBalance bool

	// BalanceInterval is the rebalancer's decision tick (0 = its default).
	// Consumed by the shard layer alongside AutoBalance.
	BalanceInterval time.Duration

	// WritePathExtra is additional per-write CPU charged outside any lock,
	// modeling the deeper write-path software stack of the ported systems
	// (writer groups, format framing) that dLSM's lean path avoids (§IV).
	WritePathExtra time.Duration

	// CompactRPC governs deadlines and retries of the near-data compaction
	// RPC. Retries are safe: each call carries a job id the memory node
	// dedupes on, so a duplicate delivery attaches to the running job
	// instead of compacting twice. On exhausted retries the engine falls
	// back to compute-local compaction.
	CompactRPC rpc.Policy

	// FreeRPC governs deadlines and retries of short control RPCs (remote
	// frees, job cancels). These are idempotent, so aggressive retry is
	// safe; an exhausted batch is dropped (leaking remote memory until the
	// next successful free) rather than wedging the GC worker.
	FreeRPC rpc.Policy

	Costs sim.CostModel
}

// DLSM returns dLSM's configuration at benchmark scale (sizes scaled from
// the paper's 64MB tables per DESIGN.md §2).
func DLSM() Options {
	return Options{
		Format:            sstable.ByteAddr,
		BitsPerKey:        10,
		MemTableSize:      4 << 20,
		EntrySizeHint:     420,
		TableSize:         4 << 20,
		L0CompactTrigger:  4,
		L0StopTrigger:     36,
		L1MaxBytes:        32 << 20,
		FlushWorkers:      4,
		CompactionWorkers: 12,
		Subcompactions:    12,
		SwitchPolicy:      SwitchSeqRange,
		CompactionSite:    CompactNearData,
		Transport:         TransportNative,
		AsyncFlush:        true,
		PrefetchBytes:     2 << 20,
		PrefetchDepth:     2,
		CompactRPC: rpc.Policy{
			Timeout:     2 * time.Second,
			MaxAttempts: 3,
			Backoff:     10 * time.Millisecond,
			MaxBackoff:  200 * time.Millisecond,
			Jitter:      0.2,
		},
		FreeRPC: rpc.Policy{
			Timeout:     50 * time.Millisecond,
			MaxAttempts: 5,
			Backoff:     1 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			Jitter:      0.2,
		},
		Costs: sim.DefaultCosts(),
	}
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	d := DLSM()
	if o.BitsPerKey == 0 {
		o.BitsPerKey = d.BitsPerKey
	}
	if o.MemTableSize == 0 {
		o.MemTableSize = d.MemTableSize
	}
	if o.EntrySizeHint == 0 {
		o.EntrySizeHint = d.EntrySizeHint
	}
	if o.TableSize == 0 {
		o.TableSize = d.TableSize
	}
	if o.L0CompactTrigger == 0 {
		o.L0CompactTrigger = d.L0CompactTrigger
	}
	if o.L1MaxBytes == 0 {
		o.L1MaxBytes = d.L1MaxBytes
	}
	if o.FlushWorkers == 0 {
		o.FlushWorkers = d.FlushWorkers
	}
	if o.CompactionWorkers == 0 {
		o.CompactionWorkers = d.CompactionWorkers
	}
	if o.Subcompactions == 0 {
		o.Subcompactions = d.Subcompactions
	}
	if o.PrefetchBytes == 0 {
		o.PrefetchBytes = d.PrefetchBytes
	}
	if o.PrefetchDepth == 0 {
		o.PrefetchDepth = d.PrefetchDepth
	}
	if o.CompactRPC == (rpc.Policy{}) {
		o.CompactRPC = d.CompactRPC
	}
	if o.FreeRPC == (rpc.Policy{}) {
		o.FreeRPC = d.FreeRPC
	}
	if o.Costs == (sim.CostModel{}) {
		o.Costs = d.Costs
	}
	if o.BlockSize == 0 {
		o.BlockSize = 8 << 10
	}
	// WALSize is only defaulted when logging is on, so DurabilityNone
	// configurations are byte-identical to builds that predate the WAL.
	if o.Durability != DurabilityNone && o.WALSize == 0 {
		o.WALSize = 8 * o.MemTableSize
		if o.WALSize < 64<<10 {
			o.WALSize = 64 << 10
		}
	}
	// Writers must never stall below the compaction trigger, or L0 can
	// never become compactable and the system wedges.
	if o.L0StopTrigger > 0 && o.L0CompactTrigger > o.L0StopTrigger {
		o.L0CompactTrigger = o.L0StopTrigger
	}
	return o
}

// Validate rejects the option combinations one half of which the engine
// would otherwise silently drop; every error names both fields. The open
// path calls it after withDefaults.
func (o Options) Validate() error {
	requires := func(a, b string) error {
		return fmt.Errorf("engine: Options.%s requires Options.%s", a, b)
	}
	switch {
	case o.ReplAck.Sync() && o.Replica == nil:
		return requires("ReplAck = "+o.ReplAck.String(), "Replica (there is no second copy to wait for)")
	case o.ReplMode != repl.IndexOnly && o.Replica == nil:
		return requires("ReplMode = "+o.ReplMode.String(), "Replica (nothing is shipped)")
	case o.Replica != nil && o.Durability == DurabilityNone:
		return requires("Replica", "Durability (nothing durable to mirror otherwise)")
	case o.Replica != nil && o.Transport != TransportNative:
		return requires("Replica", "Transport = TransportNative (extents are mirrored server to server)")
	}
	return nil
}
