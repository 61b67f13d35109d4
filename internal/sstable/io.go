package sstable

import (
	"time"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// Sink receives the sequential byte stream of a table under construction.
// Implementations: the asynchronous RDMA flush pipeline (internal/flush),
// the memory node's local copier (near-data compaction), and the
// RDMA-oriented file system used by the RocksDB baselines.
type Sink interface {
	// Write appends p to the table; p is not retained.
	Write(p []byte)
	// Finish completes the stream; on return the bytes are durable in
	// their destination memory.
	Finish() error
}

// Fetcher reads byte ranges of a table's data region.
type Fetcher interface {
	// ReadAt returns n bytes at offset off. The slice is valid only until
	// the next ReadAt on this fetcher (readers are thread-local).
	ReadAt(off, n int) ([]byte, error)
}

// Charger accounts virtual CPU time to the node running the code; nil
// means no accounting (unit tests).
type Charger func(d time.Duration)

// chargeBatcher coalesces many tiny CPU charges into scheduler-friendly
// batches; fine-grained per-entry charging would swamp the event queue.
type chargeBatcher struct {
	charge  Charger
	pending time.Duration
}

const chargeFlushThreshold = 20 * time.Microsecond

func (c *chargeBatcher) add(d time.Duration) {
	if c.charge == nil {
		return
	}
	c.pending += d
	if c.pending >= chargeFlushThreshold {
		c.charge(c.pending)
		c.pending = 0
	}
}

func (c *chargeBatcher) flush() {
	if c.charge != nil && c.pending > 0 {
		c.charge(c.pending)
		c.pending = 0
	}
}

// ReaderMetrics holds the telemetry handles table readers report into.
// Fields may be nil (nil handles are inert); one ReaderMetrics is typically
// shared by all readers of a DB.
type ReaderMetrics struct {
	// BloomNegatives counts lookups the bloom filter answered without any
	// data fetch.
	BloomNegatives *telemetry.Counter
	// Fetches counts data-region reads issued through the Fetcher.
	Fetches *telemetry.Counter
	// FetchedBytes counts the bytes those reads pulled — per-entry values
	// under ByteAddr, whole blocks under the block layout (Fig 13's read
	// amplification shows up here).
	FetchedBytes *telemetry.Counter
}

// ValueCache is the compute-side hot-KV cache consulted by point reads
// (implemented by internal/cache). Values are keyed by (table file number,
// entry index) — table files are immutable and ids are never reused, so
// cached values cannot go stale. The negative side records misses that
// survived the bloom filter, keyed by (table, user-key hash) and tagged
// with the read snapshot: a miss at snapshot S only answers readers at
// snapshots <= S, so an old-snapshot read can never hide newer versions
// from current readers. All methods must be safe for concurrent use and
// account their own virtual CPU.
type ValueCache interface {
	// GetValue returns a stable copy of the cached value, if present.
	GetValue(table uint64, entry uint32) ([]byte, bool)
	// FillValue caches a copy of val under (table, entry).
	FillValue(table uint64, entry uint32, val []byte)
	// Negative reports a recorded bloom-surviving miss valid at snapshot
	// snap (a sequence number widened to uint64).
	Negative(table, keyHash, snap uint64) bool
	// FillNegative records a bloom-surviving miss observed at snapshot snap.
	FillNegative(table, keyHash, snap uint64)
}

// Options bundles the cost model, charger, and metrics used by readers and
// writers.
type Options struct {
	Costs   sim.CostModel
	Charge  Charger
	Metrics *ReaderMetrics

	// Cache, when non-nil, is the hot-KV cache point reads consult before
	// fetching from remote memory. Scans leave it nil (bypass): one value
	// per RDMA round trip is where caching pays; prefetched chunks are not.
	Cache ValueCache
	// FillCache gates inserting fetched values and negative results into
	// Cache (ReadOptions.FillCache); lookups happen regardless.
	FillCache bool

	// Build-splitting controls for the near-data flush and its ablation
	// (DESIGN.md §11). All false by default, leaving writer behavior —
	// bytes and CPU charges — exactly as before. A builder running on one
	// node sets Skip* for the sections another node constructs, and
	// DeferFooter when the caller places the footer sections itself.
	SkipIndex   bool // don't construct the block index
	SkipFilter  bool // don't construct the bloom filter
	SkipData    bool // track geometry only: no data writes, no data charges
	DeferFooter bool // Finish returns index/filter without writing them to the sink
}

// QPFetcher reads table bytes from remote memory with one-sided RDMA reads
// through a thread-local queue pair into a registered scratch buffer.
type QPFetcher struct {
	qp      *rdma.QP
	base    rdma.RemoteAddr
	scratch *rdma.MemoryRegion
}

// NewQPFetcher creates a fetcher for the table data at base.
func NewQPFetcher(qp *rdma.QP, base rdma.RemoteAddr) *QPFetcher {
	return &QPFetcher{qp: qp, base: base}
}

// ReadAt performs one RDMA read of [off, off+n) of the table.
func (f *QPFetcher) ReadAt(off, n int) ([]byte, error) {
	if f.scratch == nil || f.scratch.Size() < n {
		size := 256 << 10
		for size < n {
			size *= 2
		}
		f.scratch = f.qp.Node().Register(size)
	}
	if err := f.qp.ReadSync(f.scratch, 0, f.base.Add(off), n); err != nil {
		return nil, err
	}
	return f.scratch.Bytes(0, n), nil
}

// LocalFetcher serves table bytes from a local memory region — the memory
// node's view of its own SSTables during near-data compaction, where reads
// cost no network time.
type LocalFetcher struct {
	mr   *rdma.MemoryRegion
	base int
}

// NewLocalFetcher wraps the extent at base within mr.
func NewLocalFetcher(mr *rdma.MemoryRegion, base int) *LocalFetcher {
	return &LocalFetcher{mr: mr, base: base}
}

// ReadAt returns a direct slice of local memory.
func (f *LocalFetcher) ReadAt(off, n int) ([]byte, error) {
	return f.mr.Bytes(f.base+off, n), nil
}

// LocalSink writes table bytes directly into a local memory region — the
// near-data compactor's output path (§V-A): compaction output never
// crosses the network.
type LocalSink struct {
	mr  *rdma.MemoryRegion
	off int
}

// NewLocalSink appends at base within mr.
func NewLocalSink(mr *rdma.MemoryRegion, base int) *LocalSink {
	return &LocalSink{mr: mr, off: base}
}

// Write copies p into the region.
func (s *LocalSink) Write(p []byte) {
	copy(s.mr.Bytes(s.off, len(p)), p)
	s.off += len(p)
}

// Finish is immediate for local memory.
func (s *LocalSink) Finish() error { return nil }
