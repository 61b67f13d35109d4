// Package repl mirrors every durable artifact of one engine shard — SSTable
// extents with their footers, the WAL ring, the checkpoint slot pair, the
// lease word — onto a second memory node, so a primary-memnode crash loses
// nothing that was acknowledged.
//
// The design follows the FORTH index-replication study (PAPERS.md): backups
// are passive DRAM. No LSM runs on the replica; bytes arrive via one-sided
// RDMA writes and the backup's CPU stays at zero. Two transfer modes are
// modeled for SSTables:
//
//   - IndexOnly: the primary memory node clones the built extent straight to
//     the replica (one `repl_clone` RPC, n bytes on the wire). This is the
//     paper's "send the index" mode.
//   - LogReplay: the compute node reads the extent back from the primary and
//     writes it to the replica (2n bytes on the wire), standing in for a
//     backup that regenerates tables from its log copy — the CPU cost is
//     modeled at the compute node, wire cost as read-back plus write-out.
//
// The WAL ring itself is mirrored inside internal/wal (see
// wal.ReplicaConfig); this package owns the table map, the replica-side
// extent lifecycle, and the slot-pair arbitration used at failover.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/remote"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/telemetry"
	"dlsm/internal/wal"
)

// Mode selects how SSTable bytes reach the replica.
type Mode int

const (
	// IndexOnly ships built extents primary→replica with a chained
	// one-sided write issued by the primary memory node.
	IndexOnly Mode = iota
	// LogReplay models a backup that rebuilds tables from its WAL copy:
	// the compute node reads the extent back and writes it out again.
	LogReplay
)

func (m Mode) String() string {
	if m == LogReplay {
		return "log-replay"
	}
	return "index-only"
}

// AckPolicy selects when a durable write acknowledges.
type AckPolicy int

const (
	// AckPrimary acks once the primary memory node has the bytes; the
	// replica is mirrored best-effort and a replica failure only degrades
	// redundancy. This is the pre-replication behavior without a replica.
	AckPrimary AckPolicy = iota
	// AckQuorum acks once a majority of copies is durable. With two
	// copies a majority is both of them, so Quorum and All coincide.
	AckQuorum
	// AckAll acks only when every copy is durable.
	AckAll
)

// Sync reports whether the policy requires the replica write to complete
// before acknowledging. With one replica, Quorum and All both do.
func (p AckPolicy) Sync() bool { return p != AckPrimary }

func (p AckPolicy) String() string {
	switch p {
	case AckQuorum:
		return "quorum"
	case AckAll:
		return "all"
	default:
		return "primary"
	}
}

// ErrDegraded is returned by Attach under a Sync policy when the replica
// copy cannot be made; wrapped errors carry the cause.
var ErrDegraded = errors.New("repl: replica degraded")

// Config wires a Mirror into one engine shard.
type Config struct {
	Compute *rdma.Node      // the shard's compute node
	Primary *memnode.Server // where the authoritative extents live
	Replica *memnode.Server // the backup memory node
	Mode    Mode
	// Sync: a failed replica copy fails the Attach (the caller retries or
	// surrenders). Non-Sync: the mirror degrades silently and OnDegrade
	// fires once.
	Sync bool
	// OnDegrade runs once when a non-Sync mirror gives up on the replica.
	// The engine hooks it to wal.Log.DropMirror so a checkpoint that can
	// no longer translate does not hold WAL truncation hostage.
	OnDegrade func()
	// RPC is the robustness policy for the repl_clone call (IndexOnly).
	RPC rpc.Policy
}

// entry records where one table's replica copy lives.
type entry struct {
	addr   rdma.RemoteAddr
	extent int64
}

// Mirror maintains the replica copies of one shard's SSTables. All methods
// are safe for concurrent use from simulation entities; the internal mutex
// is a sim mutex because it is held across blocking fabric operations.
type Mirror struct {
	cfg   Config
	env   *sim.Env
	alloc *remote.Allocator
	rmr   *rdma.MemoryRegion

	mu     *sim.Mutex
	tables map[uint64]entry
	down   bool
	closed bool
	ship   *Shipper // primary→replica extent transfer, under mu

	// Registered on the fabric registry only when a mirror exists, so an
	// unreplicated deployment's telemetry stays byte-identical to the seed.
	tablesC   *telemetry.Counter // repl.tables: extents attached
	releasedC *telemetry.Counter // repl.released: replica extents freed
	bytesC    *telemetry.Counter // repl.bytes: payload bytes mirrored
	netC      *telemetry.Counter // repl.net_bytes: wire bytes spent mirroring
	cloneC    *telemetry.Counter // repl.clone_rpcs: repl_clone calls issued
	degradedC *telemetry.Counter // repl.degraded: mirrors given up on
}

// NewMirror creates the mirror for one shard. It allocates replica extents
// from the replica's host-shared compute allocator, so copies survive a
// compute-node crash and a later Recover can adopt and eventually free them.
func NewMirror(cfg Config) *Mirror {
	env := cfg.Compute.Fabric().Env()
	tel := cfg.Compute.Fabric().Telemetry()
	return &Mirror{
		cfg:       cfg,
		env:       env,
		alloc:     cfg.Replica.ComputeAlloc(),
		rmr:       cfg.Replica.DataMR(),
		mu:        sim.NewMutex(env),
		tables:    make(map[uint64]entry),
		ship:      NewShipper(cfg.Compute, cfg.Primary.Node(), cfg.Replica.Node(), cfg.RPC),
		tablesC:   tel.Counter("repl.tables"),
		releasedC: tel.Counter("repl.released"),
		bytesC:    tel.Counter("repl.bytes"),
		netC:      tel.Counter("repl.net_bytes"),
		cloneC:    tel.Counter("repl.clone_rpcs"),
		degradedC: tel.Counter("repl.degraded"),
	}
}

// Attach mirrors one freshly built table (data + footer) onto the replica.
// It is idempotent by table id. Under Sync a failure is returned and the
// caller owns the primary extent (retry or free); otherwise the mirror
// degrades permanently and Attach reports success with one copy.
func (m *Mirror) Attach(meta *sstable.Meta) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("%w: mirror closed", ErrDegraded)
	}
	if m.down {
		if m.cfg.Sync {
			return ErrDegraded
		}
		return nil
	}
	if _, ok := m.tables[meta.ID]; ok {
		return nil
	}
	n := int(meta.Size) + meta.IndexLen + meta.FilterLen
	off, err := m.alloc.Alloc(int(meta.Extent))
	if err != nil {
		return m.failLocked(fmt.Errorf("replica extent alloc: %w", err))
	}
	dst := m.rmr.Addr(int(off))
	// IndexOnly: the primary memory node writes the extent straight to the
	// replica, n bytes on the wire and no compute CPU. LogReplay: the
	// compute node reads it back and writes it out, 2n bytes.
	var cerr error
	if m.cfg.Mode == LogReplay {
		if cerr = m.ship.Copy(meta.Data, dst, n); cerr == nil {
			m.netC.Add(2 * int64(n))
		}
	} else {
		m.cloneC.Inc()
		if cerr = m.ship.Clone(meta.Data, dst, n); cerr == nil {
			m.netC.Add(int64(n))
		}
	}
	if cerr != nil {
		// Failed dual-write: the replica extent must not leak. The copy
		// never completed, so nothing can reference it — free is safe.
		m.alloc.Free(off, int(meta.Extent))
		return m.failLocked(cerr)
	}
	m.tables[meta.ID] = entry{addr: dst, extent: meta.Extent}
	m.tablesC.Inc()
	m.bytesC.Add(int64(n))
	return nil
}

// failLocked converts a copy failure into the policy's outcome: an error
// under Sync, a permanent one-copy degrade otherwise.
func (m *Mirror) failLocked(err error) error {
	if m.cfg.Sync {
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	if !m.down {
		m.down = true
		m.degradedC.Inc()
		if m.cfg.OnDegrade != nil {
			m.cfg.OnDegrade()
		}
	}
	return nil
}

// Release frees the replica copy of a table that became obsolete (or never
// installed). Idempotent: releasing an unknown id is a no-op, so the GC path
// and an abandoned-output path can both call it without double-free.
func (m *Mirror) Release(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.tables[id]
	if !ok {
		return
	}
	delete(m.tables, id)
	m.alloc.Free(int64(e.addr.Off), int(e.extent))
	m.releasedC.Inc()
}

// Lookup returns the replica address and extent of a mirrored table.
func (m *Mirror) Lookup(id uint64) (rdma.RemoteAddr, int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.tables[id]
	return e.addr, e.extent, ok
}

// Has reports whether the table's replica copy is tracked.
func (m *Mirror) Has(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.tables[id]
	return ok
}

// Seed adopts existing replica copies, typically decoded from the replica
// checkpoint slot during recovery: each meta's Data/Extent are already
// replica-side, and the matching allocator ranges are live in the replica's
// host-shared compute allocator.
func (m *Mirror) Seed(metas []*sstable.Meta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, meta := range metas {
		if _, ok := m.tables[meta.ID]; ok {
			continue
		}
		m.tables[meta.ID] = entry{addr: meta.Data, extent: meta.Extent}
	}
}

// Down reports whether a non-Sync mirror has degraded to one copy.
func (m *Mirror) Down() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// Close releases the mirror's fabric resources. Replica extents are left in
// place: they are the surviving copy a failover recovers from.
func (m *Mirror) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.ship.Close()
}

// Shipper moves SSTable extents (data + footer) from one memory node to
// another on behalf of a compute node. Replication (Mirror.Attach) and
// shard migration (engine.Migration) both ship through it. The RPC client,
// queue pairs and scratch region are created on first use. Not safe for
// concurrent use: a Mirror ships under its mutex, a migration is
// single-threaded.
type Shipper struct {
	cn, src, dst *rdma.Node
	policy       rpc.Policy

	cli          *rpc.Client // compute→src, repl_clone requests
	qpSrc, qpDst *rdma.QP    // compute-mediated copy
	scratch      *rdma.MemoryRegion
}

// NewShipper prepares transfers from memory node src to memory node dst
// driven by compute node cn; policy governs the repl_clone RPC.
func NewShipper(cn, src, dst *rdma.Node, policy rpc.Policy) *Shipper {
	return &Shipper{cn: cn, src: src, dst: dst, policy: policy}
}

// Clone asks src to chain-write the n bytes at from — an address in its
// compute-shared data region — straight to to on dst (the repl_clone verb,
// idempotent on retry): n bytes cross the wire, no compute CPU.
func (s *Shipper) Clone(from, to rdma.RemoteAddr, n int) error {
	if s.cli == nil {
		s.cli = rpc.NewClient(s.cn, s.src, nil, 4096)
	}
	var args [32]byte
	binary.LittleEndian.PutUint64(args[0:], uint64(from.Off))
	binary.LittleEndian.PutUint64(args[8:], uint64(n))
	binary.LittleEndian.PutUint32(args[16:], uint32(to.Node))
	binary.LittleEndian.PutUint32(args[20:], to.RKey)
	binary.LittleEndian.PutUint64(args[24:], uint64(to.Off))
	if _, err := s.cli.CallPolicy("repl_clone", args[:], s.policy); err != nil {
		return fmt.Errorf("repl_clone: %w", err)
	}
	return nil
}

// Copy reads the n bytes at from back to the compute node and writes them
// out to to on dst: 2n bytes cross the wire. It reaches extents Clone
// cannot — src's self-controlled area, which repl_clone does not address.
func (s *Shipper) Copy(from, to rdma.RemoteAddr, n int) error {
	if s.qpSrc == nil {
		s.qpSrc = s.cn.NewQP(s.src)
		s.qpDst = s.cn.NewQP(s.dst)
	}
	if s.scratch == nil || s.scratch.Size() < n {
		if s.scratch != nil {
			s.cn.Deregister(s.scratch)
		}
		s.scratch = s.cn.Register(max(n, 64<<10))
	}
	if err := s.qpSrc.ReadSync(s.scratch, 0, from, n); err != nil {
		return fmt.Errorf("read-back: %w", err)
	}
	if err := s.qpDst.WriteSync(s.scratch, 0, to, n); err != nil {
		return fmt.Errorf("write-out: %w", err)
	}
	return nil
}

// Close releases the shipper's fabric resources; it may be used again
// afterwards (they are re-created on demand).
func (s *Shipper) Close() {
	if s.cli != nil {
		s.cli.Close()
		s.cli = nil
	}
	if s.qpSrc != nil {
		s.qpSrc.Close()
		s.qpDst.Close()
		s.qpSrc, s.qpDst = nil, nil
	}
	if s.scratch != nil {
		s.cn.Deregister(s.scratch)
		s.scratch = nil
	}
}

// DecodeReplicaSlot parses the 64-byte header of a replicated WAL slot
// (primary or replica side — both use the same layout). It never panics on
// hostile input; see FuzzDecodeReplicaSlot.
func DecodeReplicaSlot(b []byte) (wal.Header, error) {
	return wal.DecodeHeader(b)
}

// PickSlotPair arbitrates a replicated checkpoint-slot pair after a crash:
// it returns 0 to recover from the primary slot, 1 for the replica slot.
//
// The publish protocol flips the replica header before the primary and
// stamps both with the same publication tag, so the replica's (Epoch, Tag)
// is never behind the primary's. A torn dual-flip therefore leaves the
// replica exactly one tag ahead — the newer, self-consistent side. Ring
// bytes are only truncated after both flips land, so whichever side is
// chosen still holds every record past its own Covered horizon.
func PickSlotPair(primary, replica wal.Header) int {
	if replica.Epoch != primary.Epoch {
		if replica.Epoch > primary.Epoch {
			return 1
		}
		return 0
	}
	if replica.Tag > primary.Tag {
		return 1
	}
	return 0
}
