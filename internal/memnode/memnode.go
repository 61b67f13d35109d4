// Package memnode implements the memory-node side of dLSM: a large
// registered data region split into a compute-controlled area (MemTable
// flush targets, allocated remotely by the compute node with zero network
// round trips) and a self-controlled area (near-data compaction output,
// §V-A), plus the RPC services the compute node drives:
//
//   - "compact": near-data compaction (§V). Inputs are read from local
//     memory, merged by a pool of subcompaction workers bounded by the
//     node's (weak) CPU, and written to the self-controlled area; only the
//     new tables' metadata crosses the network back.
//   - "flush_build": the flush of a DB that has a log (after O³-LSM):
//     serializes one immutable memtable, replayed in place from the
//     already-remote WAL ring in the key order the compute node ships,
//     into the self-controlled area, building the block index and bloom
//     filter there, and returns only the metadata + index/filter bytes.
//   - "free": batched reclamation of self-allocated extents (§V-B),
//     at most once per batch id.
//   - "fs_read"/"fs_write"/"fs_free": a tmpfs-like byte service used by the
//     Nova-LSM baseline, which does file I/O through two-sided RPCs.
package memnode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"dlsm/internal/compactor"
	"dlsm/internal/keys"
	"dlsm/internal/lease"
	"dlsm/internal/rdma"
	"dlsm/internal/remote"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/telemetry"
)

// Config sizes the server.
type Config struct {
	// ComputeRegionSize is the area the compute node allocates from.
	ComputeRegionSize int64
	// SelfRegionSize is the area this node allocates compaction output in.
	SelfRegionSize int64
	// RPCWorkers is the RPC worker pool size.
	RPCWorkers int
	// Subcompactions caps the parallel subcompaction workers per job.
	Subcompactions int
	// LogRegionSize is the area write-ahead log slots are carved from
	// (internal/wal). The region is registered lazily on the first OpenLog,
	// so deployments that never enable durability pay nothing for it.
	LogRegionSize int64
	// LeaseRegionSize is the area shard-ownership lease entries are carved
	// from (internal/lease); registered lazily on the first OpenLease, so
	// single-compute deployments pay nothing for it.
	LeaseRegionSize int64
	// Costs is the CPU cost model charged against this node's cores.
	Costs sim.CostModel
}

// DefaultConfig returns sizes suitable for the benchmarks.
func DefaultConfig() Config {
	return Config{
		ComputeRegionSize: 1 << 30,
		SelfRegionSize:    1 << 30,
		RPCWorkers:        4,
		Subcompactions:    12,
		LogRegionSize:     64 << 20,
		LeaseRegionSize:   1 << 20,
		Costs:             sim.DefaultCosts(),
	}
}

// Server is one memory node's software.
type Server struct {
	env  *sim.Env
	node *rdma.Node
	cfg  Config

	dataMR       *rdma.MemoryRegion
	selfBase     int64
	selfAlloc    *remote.Allocator
	computeAlloc *remote.Allocator
	rpc          *rpc.Server

	// Job deduplication for "compact", "flush_build" and the free batches:
	// retried RPCs share a job id, so redelivery (a retry racing a slow
	// original, or following a lost reply) never runs the work twice. The
	// table lives outside the RPC service and survives its crash/restart.
	jobMu        sync.Mutex
	jobs         map[uint64]*jobState
	jobOrder     []uint64
	deduped      *telemetry.Counter
	canceled     *telemetry.Counter
	invalidFrees *telemetry.Counter // frees naming what this node does not hold

	// Write-ahead log slots (internal/wal). The directory maps a stable
	// log key (owner identity, not physical compute node) to its slot so a
	// replacement compute node can find the log of a dead one. Like the
	// data region, slots are plain registered memory: appends are one-sided
	// RDMA writes and survive both compute crashes and RPC-plane outages.
	logMu    sync.Mutex
	logMR    *rdma.MemoryRegion
	logAlloc *remote.Allocator
	logs     map[uint64]LogSlot

	// Shard-ownership lease table (internal/lease): one 64-byte entry per
	// (owner, shard), read and CAS'd by compute nodes with one-sided verbs.
	// Like the log directory, keys are logical identities so a replacement
	// compute node finds (and takes over) the leases of a dead one.
	leaseMu    sync.Mutex
	leaseMR    *rdma.MemoryRegion
	leaseAlloc *remote.Allocator
	leases     map[uint64]LeaseSlot

	fsOnce  sync.Once
	fsState *tmpfs

	// repl_clone (internal/repl, index-only replication): queue pairs to
	// destination nodes, cached per peer. cloneMu is a sim mutex because it
	// is held across the blocking chained write.
	cloneMu  *sim.Mutex
	cloneQPs map[int]*rdma.QP
}

// LogSlot locates one write-ahead log inside the log region.
type LogSlot struct {
	Addr rdma.RemoteAddr
	Size int64
}

// LeaseSlot locates one ownership-table entry inside the lease region.
type LeaseSlot struct {
	Addr rdma.RemoteAddr
	Size int64
}

// jobState tracks one offloaded job (compaction or flush build) from
// first delivery to eviction.
type jobState struct {
	done     bool
	canceled bool
	reply    []byte
	err      error
	outputs  []*sstable.Meta // self-allocated extents, freed on cancel
	waiters  []*sim.Gate     // duplicate deliveries parked while running
}

// jobCacheCap bounds the dedupe table; completed jobs are evicted FIFO.
const jobCacheCap = 256

// NewServer allocates the data region on node and wires up the RPC
// handlers. Call Start to begin serving.
func NewServer(node *rdma.Node, cfg Config) *Server {
	s := &Server{
		env:       node.Fabric().Env(),
		node:      node,
		cfg:       cfg,
		dataMR:    node.Register(int(cfg.ComputeRegionSize + cfg.SelfRegionSize)),
		selfBase:  cfg.ComputeRegionSize,
		selfAlloc: remote.NewAllocator(cfg.SelfRegionSize),
		rpc:       rpc.NewServer(node, cfg.Costs, cfg.RPCWorkers),
	}
	s.computeAlloc = remote.NewAllocator(cfg.ComputeRegionSize)
	s.jobs = make(map[uint64]*jobState)
	s.cloneMu = sim.NewMutex(s.env)
	s.cloneQPs = make(map[int]*rdma.QP)
	tel := node.Fabric().Telemetry()
	s.deduped = tel.Counter("memnode.jobs.deduped")
	s.canceled = tel.Counter("memnode.jobs.canceled")
	s.invalidFrees = tel.Counter("memnode.invalid_frees")
	s.rpc.HandleDedicated("compact", s.handleCompact, 12)
	s.rpc.Handle("compact_cancel", s.handleCompactCancel)
	// flush_build rides the shared worker pool: builds are bounded by one
	// memtable (milliseconds), unlike multi-table merges, so they cannot
	// starve the pool the way compactions would.
	s.rpc.Handle("flush_build", s.handleFlushBuild)
	s.rpc.Handle("free", s.handleFree)
	s.rpc.Handle("fs_read", s.handleFSRead)
	s.rpc.Handle("fs_write", s.handleFSWrite)
	s.rpc.Handle("fs_free", s.handleFSFree)
	s.rpc.Handle("repl_clone", s.handleReplClone)
	return s
}

// Start launches the RPC service entities.
func (s *Server) Start() { s.rpc.Start() }

// StopService simulates the memory-node server process dying: the RPC
// plane stops (requests are dropped, in-flight replies are suppressed)
// while the registered data region stays remotely accessible — one-sided
// RDMA bypasses this node's CPU, which is exactly what lets a compute
// node fall back to local compaction with zero data loss.
func (s *Server) StopService() { s.rpc.Stop() }

// RestartService brings the RPC plane back up. The job-dedupe table
// persisted across the outage, so duplicate compaction deliveries from
// before the crash are still recognized.
func (s *Server) RestartService() { s.rpc.Start() }

// ServiceRunning reports whether the RPC plane is accepting requests.
func (s *Server) ServiceRunning() bool { return s.rpc.Running() }

// Node returns the underlying fabric node.
func (s *Server) Node() *rdma.Node { return s.node }

// DataMR returns the registered data region. The compute node addresses it
// through rkeys; local compaction reads it directly.
func (s *Server) DataMR() *rdma.MemoryRegion { return s.dataMR }

// ComputeRegionSize returns the size of the compute-controlled area, which
// occupies [0, ComputeRegionSize) of the data region.
func (s *Server) ComputeRegionSize() int64 { return s.cfg.ComputeRegionSize }

// ComputeAlloc is the allocator over the compute-controlled area. It is
// logically owned and driven by compute-side code (§V-A); the single shared
// instance keeps the many engines (shards, or multiple compute nodes) that
// target one memory node from handing out overlapping extents.
func (s *Server) ComputeAlloc() *remote.Allocator { return s.computeAlloc }

// ComputeUsed returns bytes allocated in the compute-controlled area.
func (s *Server) ComputeUsed() int64 { return s.computeAlloc.Used() }

// SelfUsed returns bytes allocated in the self-controlled area.
func (s *Server) SelfUsed() int64 { return s.selfAlloc.Used() }

// OpenLog returns the write-ahead log slot for key, carving a new one out
// of the log region on first use. Reopening an existing key returns the
// surviving slot unchanged (its size is whatever the creator asked for),
// which is what lets a restarted or replacement compute node recover the
// log a dead one left behind.
func (s *Server) OpenLog(key uint64, size int64) (LogSlot, error) {
	if key == 0 {
		return LogSlot{}, fmt.Errorf("memnode: zero log key")
	}
	if size <= 0 {
		return LogSlot{}, fmt.Errorf("memnode: log slot size %d", size)
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if slot, ok := s.logs[key]; ok {
		return slot, nil
	}
	if s.logMR == nil {
		if s.cfg.LogRegionSize <= 0 {
			return LogSlot{}, fmt.Errorf("memnode: log region disabled (LogRegionSize=%d)", s.cfg.LogRegionSize)
		}
		s.logMR = s.node.Register(int(s.cfg.LogRegionSize))
		s.logAlloc = remote.NewAllocator(s.cfg.LogRegionSize)
		s.logs = make(map[uint64]LogSlot)
	}
	off, err := s.logAlloc.Alloc(int(size))
	if err != nil {
		return LogSlot{}, fmt.Errorf("memnode: log region full: a %d-byte log slot does not fit beside the %d bytes already carved from the %d-byte region (Config.LogRegionSize): %w",
			size, s.logAlloc.Used(), s.cfg.LogRegionSize, err)
	}
	slot := LogSlot{Addr: s.logMR.Addr(int(off)), Size: size}
	s.logs[key] = slot
	return slot, nil
}

// FindLog looks up an existing log slot without creating one. Recovery
// uses it to distinguish "this owner never wrote a log" from a real slot.
func (s *Server) FindLog(key uint64) (LogSlot, bool) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	slot, ok := s.logs[key]
	return slot, ok
}

// LogUsed returns bytes carved out of the log region.
func (s *Server) LogUsed() int64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.logAlloc == nil {
		return 0
	}
	return s.logAlloc.Used()
}

// LogMR exposes the log region for tests that corrupt or inspect raw log
// bytes; nil until the first OpenLog.
func (s *Server) LogMR() *rdma.MemoryRegion {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logMR
}

// OpenLease returns the ownership-table entry for key, carving a fresh one
// (free, epoch 0, magic stamped) out of the lease region on first use.
// Reopening an existing key returns the surviving entry unchanged — its
// epoch history is exactly what fences deposed holders, so it must never
// be reset.
func (s *Server) OpenLease(key uint64) (LeaseSlot, error) {
	if key == 0 {
		return LeaseSlot{}, fmt.Errorf("memnode: zero lease key")
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if slot, ok := s.leases[key]; ok {
		return slot, nil
	}
	if s.leaseMR == nil {
		if s.cfg.LeaseRegionSize <= 0 {
			return LeaseSlot{}, fmt.Errorf("memnode: lease region disabled (LeaseRegionSize=%d)", s.cfg.LeaseRegionSize)
		}
		s.leaseMR = s.node.Register(int(s.cfg.LeaseRegionSize))
		s.leaseAlloc = remote.NewAllocator(s.cfg.LeaseRegionSize)
		s.leases = make(map[uint64]LeaseSlot)
	}
	off, err := s.leaseAlloc.Alloc(lease.EntrySize)
	if err != nil {
		return LeaseSlot{}, fmt.Errorf("memnode: lease region full: %w", err)
	}
	// Stamp the entry in place (free word, magic, version); the region is
	// zeroed at registration so the reserved tail is already valid.
	for i, b := range lease.EncodeEntry(lease.Entry{}) {
		s.leaseMR.SetByte(int(off)+i, b)
	}
	slot := LeaseSlot{Addr: s.leaseMR.Addr(int(off)), Size: lease.EntrySize}
	s.leases[key] = slot
	return slot, nil
}

// FindLease looks up an existing lease entry without creating one.
func (s *Server) FindLease(key uint64) (LeaseSlot, bool) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	slot, ok := s.leases[key]
	return slot, ok
}

// LeaseMR exposes the lease region for tests; nil until the first OpenLease.
func (s *Server) LeaseMR() *rdma.MemoryRegion {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	return s.leaseMR
}

// charge accounts CPU time to this node's core pool.
func (s *Server) charge(d sim.Duration) { s.node.CPU.Use(d) }

// --- near-data compaction -------------------------------------------------

// CompactArgs is the large RPC argument for near-data compaction: the
// compute node picks the inputs and ships only their metadata (§V-A).
type CompactArgs struct {
	Inputs           []*sstable.Meta
	SmallestSnapshot uint64
	DropTombstones   bool
	Subcompactions   int
	TableSize        int64 // per-output data budget
	ExtentCap        int64 // per-output extent size (data + footer)
	Format           sstable.Format
	BlockSize        int
	BitsPerKey       int
	// JobID identifies the job across RPC retries: every retry of one
	// compaction carries the same nonzero id, letting the memory node
	// deduplicate redelivery. 0 disables deduplication.
	JobID uint64
}

// EncodeCompactArgs serializes args for transport.
func EncodeCompactArgs(a *CompactArgs) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(a.Inputs)))
	for _, m := range a.Inputs {
		// Slim metadata: the index and filter stay out of the RPC; the
		// responder reloads them from the table footers in its own DRAM.
		enc := sstable.EncodeMetaSlim(m)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(enc)))
		b = append(b, enc...)
	}
	b = binary.LittleEndian.AppendUint64(b, a.SmallestSnapshot)
	b = append(b, boolByte(a.DropTombstones))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.Subcompactions))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.TableSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.ExtentCap))
	b = append(b, byte(a.Format))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.BlockSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.BitsPerKey))
	b = binary.LittleEndian.AppendUint64(b, a.JobID)
	return b
}

// DecodeCompactArgs parses EncodeCompactArgs output.
func DecodeCompactArgs(b []byte) (*CompactArgs, error) {
	a := &CompactArgs{}
	if len(b) < 4 {
		return nil, fmt.Errorf("memnode: short compact args")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("memnode: truncated input %d", i)
		}
		sz := int(binary.LittleEndian.Uint32(b))
		if len(b) < 4+sz {
			return nil, fmt.Errorf("memnode: truncated input meta %d", i)
		}
		m, _, err := sstable.DecodeMeta(b[4 : 4+sz])
		if err != nil {
			return nil, err
		}
		a.Inputs = append(a.Inputs, m)
		b = b[4+sz:]
	}
	if len(b) < 8+1+4+8+8+1+4+4+8 {
		return nil, fmt.Errorf("memnode: short compact args tail")
	}
	a.SmallestSnapshot = binary.LittleEndian.Uint64(b)
	a.DropTombstones = b[8] != 0
	a.Subcompactions = int(binary.LittleEndian.Uint32(b[9:]))
	a.TableSize = int64(binary.LittleEndian.Uint64(b[13:]))
	a.ExtentCap = int64(binary.LittleEndian.Uint64(b[21:]))
	a.Format = sstable.Format(b[29])
	a.BlockSize = int(binary.LittleEndian.Uint32(b[30:]))
	a.BitsPerKey = int(binary.LittleEndian.Uint32(b[34:]))
	a.JobID = binary.LittleEndian.Uint64(b[38:])
	return a, nil
}

// EncodeMetas serializes a list of table metas (the compaction reply).
func EncodeMetas(metas []*sstable.Meta) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(metas)))
	for _, m := range metas {
		enc := sstable.EncodeMeta(m)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(enc)))
		b = append(b, enc...)
	}
	return b
}

// DecodeMetas parses EncodeMetas output.
func DecodeMetas(b []byte) ([]*sstable.Meta, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("memnode: short metas")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := make([]*sstable.Meta, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("memnode: truncated meta %d", i)
		}
		sz := int(binary.LittleEndian.Uint32(b))
		if len(b) < 4+sz {
			return nil, fmt.Errorf("memnode: truncated meta body %d", i)
		}
		m, _, err := sstable.DecodeMeta(b[4 : 4+sz])
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		b = b[4+sz:]
	}
	return out, nil
}

// handleCompact executes one near-data compaction job under the shared
// job-dedupe table.
func (s *Server) handleCompact(from int, argBytes []byte) ([]byte, error) {
	args, err := DecodeCompactArgs(argBytes)
	if err != nil {
		return nil, err
	}
	return s.withJobDedupe(args.JobID, func() ([]byte, []*sstable.Meta, error) {
		return s.runCompactJob(args)
	})
}

// withJobDedupe executes run once per job id, deduplicating redelivered
// jobs: a duplicate of a completed job returns the cached reply; a
// duplicate of a running job parks until the original finishes and
// returns the same reply. Neither runs the work again. jobID 0 disables
// deduplication. Shared by the "compact" and "flush_build" services —
// both allocate self-region output extents that a cancel must reclaim —
// and by the free batches, which have none.
func (s *Server) withJobDedupe(jobID uint64, run func() ([]byte, []*sstable.Meta, error)) ([]byte, error) {
	if jobID == 0 {
		reply, _, err := run()
		return reply, err
	}

	s.jobMu.Lock()
	if st, ok := s.jobs[jobID]; ok {
		s.deduped.Inc()
		if !st.done {
			g := sim.NewGate()
			st.waiters = append(st.waiters, g)
			s.jobMu.Unlock()
			s.env.Clock().Park("memnode.job", g)
			s.jobMu.Lock()
		}
		reply, jerr := st.reply, st.err
		s.jobMu.Unlock()
		return reply, jerr
	}
	st := &jobState{}
	s.jobs[jobID] = st
	s.jobOrder = append(s.jobOrder, jobID)
	s.jobMu.Unlock()

	reply, outputs, err := run()

	s.jobMu.Lock()
	st.done = true
	if st.canceled {
		// A cancel raced the work: the compute node has fallen back to
		// the local path and will never claim these outputs.
		for _, m := range outputs {
			s.freeSelf(m)
		}
		reply, outputs, err = nil, nil, fmt.Errorf("memnode: job %d canceled", jobID)
	}
	st.reply, st.err, st.outputs = reply, err, outputs
	waiters := st.waiters
	st.waiters = nil
	s.evictJobsLocked()
	s.jobMu.Unlock()
	for _, g := range waiters {
		s.env.Clock().Ready("memnode.job", g)
	}
	return reply, err
}

// handleCompactCancel frees the outputs of a job — compaction or flush
// build, they share the table — whose requester gave up (exhausted
// retries and fell back to the compute-local path). Best effort: the id
// is tombstoned so a late duplicate delivery cannot start the work.
func (s *Server) handleCompactCancel(from int, args []byte) ([]byte, error) {
	if len(args) < 8 {
		return nil, fmt.Errorf("memnode: short cancel args")
	}
	id := binary.LittleEndian.Uint64(args)
	s.jobMu.Lock()
	st := s.jobs[id]
	switch {
	case st == nil:
		s.jobs[id] = &jobState{
			done: true, canceled: true,
			err: fmt.Errorf("memnode: job %d canceled", id),
		}
		s.jobOrder = append(s.jobOrder, id)
		s.evictJobsLocked()
	case st.done && !st.canceled:
		for _, m := range st.outputs {
			s.freeSelf(m)
		}
		st.outputs = nil
		st.canceled = true
		st.reply = nil
		st.err = fmt.Errorf("memnode: job %d canceled", id)
	default:
		st.canceled = true // completion path frees the outputs
	}
	s.canceled.Inc()
	s.jobMu.Unlock()
	return nil, nil
}

// evictJobsLocked trims completed jobs FIFO once the table exceeds its
// cap. Running jobs block eviction at their position to keep order cheap.
func (s *Server) evictJobsLocked() {
	for len(s.jobs) > jobCacheCap && len(s.jobOrder) > 0 {
		id := s.jobOrder[0]
		if st := s.jobs[id]; st != nil && !st.done {
			break
		}
		s.jobOrder = s.jobOrder[1:]
		delete(s.jobs, id)
	}
}

// runCompactJob executes the merge itself and returns the encoded reply
// plus the output metas (for cancellation bookkeeping).
func (s *Server) runCompactJob(args *CompactArgs) ([]byte, []*sstable.Meta, error) {
	for _, m := range args.Inputs {
		if m.Data.Node != s.node.ID {
			return nil, nil, fmt.Errorf("memnode: input table %d not resident on node %d", m.ID, s.node.ID)
		}
		// Reload the index (and filter, unused during merge) from the
		// table footer: a local memory read, no network traffic.
		if m.Index.NumRecords() == 0 && m.IndexLen > 0 {
			raw := append([]byte(nil), s.dataMR.Bytes(m.Data.Off+int(m.Size), m.IndexLen)...)
			m.Index = sstable.NewIndexFromRaw(raw, m.Format)
		}
	}

	k := args.Subcompactions
	if k > s.cfg.Subcompactions {
		k = s.cfg.Subcompactions
	}
	if k < 1 {
		k = 1
	}
	ranges := compactor.SplitRanges(args.Inputs, k, args.TableSize)

	type result struct {
		idx   int
		metas []*sstable.Meta
		err   error
	}
	results := make([]result, len(ranges))
	wg := sim.NewWaitGroup(s.env)
	for i, r := range ranges {
		i, r := i, r
		wg.Add(1)
		run := func() {
			defer wg.Done()
			metas, err := s.runSubcompaction(args, r[0], r[1])
			results[i] = result{i, metas, err}
		}
		if i == len(ranges)-1 {
			run() // run the last range on this worker
		} else {
			s.env.Go(run)
		}
	}
	wg.Wait()

	var outputs []*sstable.Meta
	for _, r := range results {
		if r.err != nil {
			// Free any extents the successful subcompactions allocated.
			for _, rr := range results {
				for _, m := range rr.metas {
					s.freeSelf(m)
				}
			}
			return nil, nil, r.err
		}
		outputs = append(outputs, r.metas...)
	}
	return EncodeMetas(outputs), outputs, nil
}

// runSubcompaction merges one key subrange locally.
func (s *Server) runSubcompaction(args *CompactArgs, lo, hi []byte) ([]*sstable.Meta, error) {
	inputs := make([]compactor.Input, len(args.Inputs))
	for i, m := range args.Inputs {
		inputs[i] = compactor.Input{Meta: m, Fetch: sstable.NewLocalFetcher(s.dataMR, m.Data.Off)}
	}
	factory := func(capacity int64) (sstable.Sink, compactor.Commit, error) {
		off, err := s.selfAlloc.Alloc(int(capacity))
		if err != nil {
			return nil, nil, err
		}
		abs := int(s.selfBase + off)
		commit := func(res sstable.BuildResult, maxSeq uint64) (*sstable.Meta, error) {
			// Shrink to the shared extent class (see engine.shrinkExtent):
			// uniform classes keep the region fragmentation-free.
			actual := int(res.Size) + res.IndexLen + res.FilterLen
			if class := int(remote.ClassSize(int(args.ExtentCap))); args.ExtentCap > 0 && actual < class {
				actual = class
			}
			extent := s.selfAlloc.Shrink(off, actual)
			return &sstable.Meta{
				// IDs are assigned by the compute node on receipt.
				Size: res.Size, Extent: extent,
				IndexLen: res.IndexLen, FilterLen: res.FilterLen, Count: res.Count,
				Smallest: res.Smallest, Largest: res.Largest, MaxSeq: maxSeq,
				Data:        s.dataMR.Addr(abs),
				CreatorNode: s.node.ID,
				Format:      args.Format, BlockSize: args.BlockSize,
				Index: res.Index, Filter: res.Filter,
			}, nil
		}
		return sstable.NewLocalSink(s.dataMR, abs), commit, nil
	}
	return compactor.Run(inputs, compactor.Params{
		Format:           args.Format,
		BlockSize:        args.BlockSize,
		BitsPerKey:       args.BitsPerKey,
		TableSize:        args.TableSize,
		ExtentCap:        args.ExtentCap,
		SmallestSnapshot: keys.Seq(args.SmallestSnapshot),
		DropTombstones:   args.DropTombstones,
		Lo:               lo,
		Hi:               hi,
		Opts:             sstable.Options{Costs: s.cfg.Costs, Charge: s.charge},
	}, factory)
}

// freeSelf releases a self-allocated output extent.
func (s *Server) freeSelf(m *sstable.Meta) {
	s.selfAlloc.Free(int64(m.Data.Off)-s.selfBase, int(m.Extent))
}

// --- batched garbage collection (§V-B) -------------------------------------

// EncodeFrees serializes a batch of (absolute offset, extent) pairs under
// the id that makes its delivery at most once (0 disables that).
func EncodeFrees(jobID uint64, frees [][2]int64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, jobID)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(frees)))
	for _, f := range frees {
		b = binary.LittleEndian.AppendUint64(b, uint64(f[0]))
		b = binary.LittleEndian.AppendUint64(b, uint64(f[1]))
	}
	return b
}

// EncodeFSFrees serializes a batch of tmpfs file ids the same way.
func EncodeFSFrees(jobID uint64, ids []uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, jobID)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, id)
	}
	return b
}

// handleFreeBatch is what "free" and "fs_free" share: decode the batch
// (`id u64 | count u32 | count × item`) and apply every item once per batch
// id — a retry after a lost reply gets the first delivery's answer instead
// of freeing again. An item free rejects (bytes from a peer) is counted
// and answered with an error once the rest of the batch has been applied.
func (s *Server) handleFreeBatch(what string, args []byte, itemLen int, free func(item []byte) error) ([]byte, error) {
	if len(args) < 12 {
		return nil, fmt.Errorf("memnode: short %s batch", what)
	}
	id, n := binary.LittleEndian.Uint64(args), int(binary.LittleEndian.Uint32(args[8:]))
	args = args[12:]
	if len(args) < itemLen*n {
		return nil, fmt.Errorf("memnode: truncated %s batch", what)
	}
	return s.withJobDedupe(id, func() ([]byte, []*sstable.Meta, error) {
		var invalid []error
		for i := 0; i < n; i++ {
			if err := free(args[itemLen*i:]); err != nil {
				invalid = append(invalid, err)
			}
		}
		s.invalidFrees.Add(int64(len(invalid)))
		return nil, nil, errors.Join(invalid...)
	})
}

func (s *Server) handleFree(from int, args []byte) ([]byte, error) {
	return s.handleFreeBatch("free", args, 16, func(item []byte) error {
		off := int64(binary.LittleEndian.Uint64(item))
		ext := int64(binary.LittleEndian.Uint64(item[8:]))
		return s.selfAlloc.TryFree(off-s.selfBase, int(ext))
	})
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
