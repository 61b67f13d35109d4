// Package dlsm is a Go implementation of dLSM, the LSM-tree index for
// disaggregated memory from "dLSM: An LSM-Based Index for Memory
// Disaggregation" (ICDE 2023). MemTables, tree metadata, SSTable indexes
// and bloom filters live on a compute node; SSTable bytes live on one or
// more memory nodes reached through an RDMA-style fabric.
//
// Because real RDMA hardware (and multi-server testbeds) are not assumed,
// the fabric is simulated: real bytes move between real data structures,
// while network latency/bandwidth and per-node CPU cores are accounted on
// a virtual clock (see internal/sim and DESIGN.md). All code runs inside a
// simulation environment:
//
//	d := dlsm.NewDeployment(dlsm.SingleNodeConfig())
//	d.Run(func() {
//		db, err := dlsm.OpenDB(d, dlsm.RolePrimary, dlsm.Placement{}, dlsm.DefaultOptions())
//		if err != nil { ... }
//		defer db.Close()
//		s := db.NewSession()
//		defer s.Close()
//		s.Put([]byte("k"), []byte("v"))
//		v, err := s.Get([]byte("k"))
//		...
//	})
//	d.Close()
package dlsm

import (
	"fmt"

	"dlsm/internal/engine"
	"dlsm/internal/keys"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/repl"
	"dlsm/internal/shard"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// Re-exported configuration and identifiers. The aliases expose the full
// engine configuration surface without duplicating it.
type (
	// Options configures a DB; see DefaultOptions.
	Options = engine.Options
	// ReadOptions tunes one read (cache fill policy, scan prefetch).
	ReadOptions = engine.ReadOptions
	// Batch buffers writes for Session.Apply (one sequence-range claim).
	Batch = engine.Batch
	// Seq is a snapshot sequence number.
	Seq = keys.Seq
	// LinkParams models one network link.
	LinkParams = rdma.LinkParams
	// MemNodeConfig sizes a memory node.
	MemNodeConfig = memnode.Config
)

// Durability selects how writes interact with the remote write-ahead log
// (internal/wal): DurabilityNone (default) disables logging, DurabilityAsync
// acknowledges before the log write lands, DurabilitySync acknowledges only
// once the record is in remote memory — RoleRecover then restores 100% of
// acknowledged writes after a compute-node crash.
type Durability = engine.Durability

// Durability modes for Options.Durability.
const (
	DurabilityNone  = engine.DurabilityNone
	DurabilityAsync = engine.DurabilityAsync
	DurabilitySync  = engine.DurabilitySync
)

// AckPolicy selects when replicated writes acknowledge
// (Options.ReplAck, internal/repl): AckPrimary keeps the single-copy
// behavior (best-effort mirror), AckQuorum and AckAll wait for the
// replica too (they coincide with one replica).
type AckPolicy = repl.AckPolicy

// Acknowledgement policies for Options.ReplAck.
const (
	AckPrimary = repl.AckPrimary
	AckQuorum  = repl.AckQuorum
	AckAll     = repl.AckAll
)

// ReplicationMode selects how flushed/compacted SSTables reach the
// replica memory node (Options.ReplMode): ReplIndexOnly ships each built
// extent once, primary to replica; ReplLogReplay has the compute node
// read it back and re-write it (twice the network bytes, the baseline
// the FORTH index-replication study compares against).
type ReplicationMode = repl.Mode

// SSTable replication modes for Options.ReplMode.
const (
	ReplIndexOnly = repl.IndexOnly
	ReplLogReplay = repl.LogReplay
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = engine.ErrNotFound

// ErrClosed is returned by writes through a closed Session or DB.
var ErrClosed = engine.ErrClosed

// ErrStalled is returned when a write stalled longer than
// Options.StallTimeout (0 disables the timeout).
var ErrStalled = engine.ErrStalled

// ErrReadOnly is returned by writes through a read-only secondary.
var ErrReadOnly = engine.ErrReadOnly

// ErrFenced is returned by writes on a primary whose shard write lease was
// taken over by another compute node (RoleTakeover): the write may be in
// the remote log, but it was never acknowledged and the new primary's
// recovery decides whether it survives. Treat like any failed write.
var ErrFenced = engine.ErrFenced

// ErrLeaseHeld is returned by OpenDB when a leased RolePrimary finds
// another compute node holding a shard's write lease. Use RoleTakeover to
// depose a dead holder.
var ErrLeaseHeld = shard.ErrLeaseHeld

// Compaction / transport / switch-policy selectors (see DESIGN.md).
const (
	CompactNearData = engine.CompactNearData
	CompactLocal    = engine.CompactLocal

	TransportNative   = engine.TransportNative
	TransportFS       = engine.TransportFS
	TransportTmpfsRPC = engine.TransportTmpfsRPC

	SwitchSeqRange = engine.SwitchSeqRange
	SwitchLocked   = engine.SwitchLocked
)

// DefaultOptions returns dLSM's configuration (byte-addressable SSTables,
// near-data compaction, asynchronous flushing, sequence-range switching).
func DefaultOptions() Options { return engine.DLSM() }

// DeploymentConfig describes the simulated machines.
type DeploymentConfig struct {
	ComputeNodes int
	MemoryNodes  int
	ComputeCores int // per compute node (paper: 24)
	MemoryCores  int // per memory node (paper sweeps 1-12; default 12)
	Link         LinkParams
	MemNode      MemNodeConfig
}

// SingleNodeConfig is the paper's main testbed: one compute node, one
// memory node, EDR 100 Gb/s link.
func SingleNodeConfig() DeploymentConfig {
	return DeploymentConfig{
		ComputeNodes: 1,
		MemoryNodes:  1,
		ComputeCores: 24,
		MemoryCores:  12,
		Link:         rdma.EDR100(),
		MemNode:      memnode.DefaultConfig(),
	}
}

// CloudLabConfig mirrors the multi-node testbed (c6220: 16 cores, FDR
// 56 Gb/s) used in §XI-C8.
func CloudLabConfig(computeNodes, memoryNodes int) DeploymentConfig {
	cfg := SingleNodeConfig()
	cfg.ComputeNodes = computeNodes
	cfg.MemoryNodes = memoryNodes
	cfg.ComputeCores = 16
	cfg.MemoryCores = 8
	cfg.Link = rdma.FDR56()
	return cfg
}

// Deployment is a running simulated cluster: the fabric, compute nodes and
// started memory-node servers.
type Deployment struct {
	Env     *sim.Env
	Fabric  *rdma.Fabric
	Compute []*rdma.Node
	Servers []*memnode.Server
}

// NewDeployment builds and starts the simulated machines.
func NewDeployment(cfg DeploymentConfig) *Deployment {
	if cfg.ComputeNodes < 1 || cfg.MemoryNodes < 1 {
		panic("dlsm: deployment needs at least one compute and one memory node")
	}
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, cfg.Link)
	d := &Deployment{Env: env, Fabric: fab}
	for i := 0; i < cfg.ComputeNodes; i++ {
		d.Compute = append(d.Compute, fab.AddNode(fmt.Sprintf("compute-%d", i), cfg.ComputeCores))
	}
	for i := 0; i < cfg.MemoryNodes; i++ {
		mn := fab.AddNode(fmt.Sprintf("memory-%d", i), cfg.MemoryCores)
		srv := memnode.NewServer(mn, cfg.MemNode)
		srv.Start()
		d.Servers = append(d.Servers, srv)
	}
	return d
}

// Run executes fn as a simulated entity; blocking inside fn advances the
// virtual clock. Call from the host goroutine that owns the deployment.
func (d *Deployment) Run(fn func()) { d.Env.Run(fn) }

// Close tears down the fabric. Databases must be closed first (inside
// Run), then Close joins the remaining simulation entities.
func (d *Deployment) Close() {
	d.Env.Run(func() { d.Fabric.Close() })
	d.Env.Wait()
}

// DB is a (possibly sharded) dLSM index on one compute node.
type DB struct {
	inner *shard.DB
}

// Role and Placement are OpenDB's two structural arguments; internal/shard,
// which runs the open path, documents them field by field.
type (
	// Role selects what OpenDB opens: a fresh read-write primary, a
	// read-only secondary of Placement.Owner's shard group, a takeover of
	// its write leases, or its recovery from the remote logs.
	Role = shard.Role
	// Placement names where the DB runs (ComputeIdx), whose log slots and
	// leases it adopts (Owner — the owner-remap rule: a recovered DB keeps
	// logging under Owner, never under its own ComputeIdx), the memory
	// nodes its shards round-robin across (Servers), the shard geometry
	// (Lambda, Boundaries) and whether a primary holds write leases (Lease).
	Placement = shard.Placement
)

// Roles for OpenDB.
const (
	RolePrimary   = shard.RolePrimary
	RoleSecondary = shard.RoleSecondary
	RoleTakeover  = shard.RoleTakeover
	RoleRecover   = shard.RoleRecover
)

// OpenDB opens, recovers, takes over, or attaches to a dLSM index — the
// one constructor. The Role picks the protocol (a fresh read-write DB, a
// read-only secondary, a lease takeover, a crash recovery), the Placement
// picks the compute node, the memory nodes, the shard geometry and the
// identity under which log slots and shard leases are bound (nil
// Placement.Servers means every memory node of d), and opts configures
// each shard's engine. Combinations that cannot mean anything — a lease on
// a secondary, an ack policy with no replica — are errors, not ignored.
func OpenDB(d *Deployment, role Role, p Placement, opts Options) (*DB, error) {
	if p.Servers == nil {
		p.Servers = d.Servers
	}
	if p.ComputeIdx < 0 || p.ComputeIdx >= len(d.Compute) {
		return nil, fmt.Errorf("dlsm: placement names compute node %d of a %d-node deployment", p.ComputeIdx, len(d.Compute))
	}
	inner, err := shard.Open(d.Compute[p.ComputeIdx], role, p, opts)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// UniformBoundaries splits a formatted integer key space into lambda equal
// ranges; format must be monotone in i (e.g. fmt.Sprintf("key-%012d", i)).
func UniformBoundaries(lambda, maxKey int, format func(i int) []byte) [][]byte {
	return shard.UniformBoundaries(lambda, maxKey, format)
}

// Lambda returns the shard count.
func (db *DB) Lambda() int { return db.inner.Lambda() }

// Flush forces all MemTables to remote memory (the §VIII checkpoint
// boundary).
func (db *DB) Flush() { db.inner.Flush() }

// WaitForCompactions blocks until background compaction settles.
func (db *DB) WaitForCompactions() { db.inner.WaitForCompactions() }

// SpaceUsed reports the remote-memory footprint in bytes.
func (db *DB) SpaceUsed() int64 { return db.inner.SpaceUsed() }

// Stats returns per-shard engine statistics.
func (db *DB) Stats() []*engine.Stats {
	out := make([]*engine.Stats, db.inner.Lambda())
	for i := range out {
		out[i] = db.inner.Shard(i).Stats()
	}
	return out
}

// TelemetrySnapshot returns the merged metrics of all shards: latency
// histograms (virtual ns), flush-pipeline stats, per-level compaction
// bytes, and the headline Stats counters. Merge it with
// Deployment.Fabric.Telemetry().Snapshot() for per-link network traffic.
func (db *DB) TelemetrySnapshot() telemetry.Snapshot {
	return db.inner.TelemetrySnapshot()
}

// Shard exposes shard i's engine (advanced use, ablations).
func (db *DB) Shard(i int) *engine.DB { return db.inner.Shard(i) }

// Boundaries returns the current shard split points (λ-1 ascending user
// keys). With Options.AutoBalance — or after manual Split/Merge calls —
// these drift from the Placement.Boundaries passed at open time, which are
// a starting geometry, not a contract.
func (db *DB) Boundaries() [][]byte { return db.inner.Boundaries() }

// Split divides the shard owning pivot into two at pivot, the upper half
// served by a fresh engine on the same memory node. The cut is online:
// writers to the moving range pause only for the final drain-fence-delta
// window; reads and other ranges are never blocked. Zero acknowledged
// writes are lost (the source is fenced with a burned sequence range, the
// same mechanism flushes trust).
func (db *DB) Split(pivot []byte) error {
	rt := db.inner
	return rt.SplitShardAt(rt.ShardID(rt.Route(pivot)), pivot)
}

// Merge folds the two shards meeting at boundary back into one (boundary
// must be one of Boundaries()). The right shard's live keys move into the
// left engine; the right engine is retired until Close.
func (db *DB) Merge(boundary []byte) error {
	return db.inner.MergeAt(boundary)
}

// Migrate moves the shard owning key to the deployment memory node at
// index server, using server-to-server extent cloning plus a WAL tail
// replay when durability and the native transport allow it.
func (db *DB) Migrate(key []byte, server int) error {
	rt := db.inner
	return rt.MigrateShard(rt.ShardID(rt.Route(key)), server)
}

// RefreshView re-reads every shard's WAL checkpoint slot on a read-only
// secondary and installs the primary's latest published view. Errors on
// primaries.
func (db *DB) RefreshView() error { return db.inner.RefreshView() }

// PublishCheckpoint synchronously publishes every shard's checkpoint on a
// primary (the background trimmer does the same after each flush). Call it
// after Flush to make all flushed writes observable by secondaries' next
// RefreshView. Errors when Durability is off.
func (db *DB) PublishCheckpoint() error { return db.inner.PublishCheckpoint() }

// Close stops background work and releases engine resources.
func (db *DB) Close() { db.inner.Close() }

// Session is a per-thread handle; see the package example. Sessions are
// not safe for concurrent use (thread-local QPs, §X-B).
type Session struct {
	inner *shard.Session
}

// NewSession creates a thread-local handle.
func (db *DB) NewSession() *Session { return &Session{inner: db.inner.NewSession()} }

// Put inserts or overwrites key. It returns ErrClosed on a closed session
// or DB and ErrStalled when the write outwaits Options.StallTimeout.
func (s *Session) Put(key, value []byte) error { return s.inner.Put(key, value) }

// Delete removes key (a tombstone write). Errors as for Put.
func (s *Session) Delete(key []byte) error { return s.inner.Delete(key) }

// Apply writes every operation buffered in b, claiming one sequence range
// per shard touched instead of one per entry. Entries become visible as
// they are inserted; Apply is a throughput construct, not a transaction.
// On a sharded DB the batch is applied shard by shard (not in insertion
// order); every shard is attempted even if one fails, and the returned
// error joins the per-shard failures — operations routed to a failed shard
// were not applied while the other shards' operations were. Use errors.Is
// to test for ErrClosed or ErrStalled.
func (s *Session) Apply(b *Batch) error { return s.inner.Apply(b) }

// Get returns the newest visible value of key or ErrNotFound.
func (s *Session) Get(key []byte) ([]byte, error) { return s.inner.Get(key) }

// GetOpts is Get with an explicit read policy (ReadOptions.FillCache).
func (s *Session) GetOpts(key []byte, ro ReadOptions) ([]byte, error) {
	return s.inner.GetOpts(key, ro)
}

// NewIterator opens a snapshot-consistent scan in key order.
func (s *Session) NewIterator() *Iterator { return &Iterator{inner: s.inner.NewIterator()} }

// NewIteratorOpts is NewIterator with an explicit read policy
// (ReadOptions.PrefetchBytes; scans bypass the hot-KV cache).
func (s *Session) NewIteratorOpts(ro ReadOptions) *Iterator {
	return &Iterator{inner: s.inner.NewIteratorOpts(ro)}
}

// Close releases the session's fabric resources.
func (s *Session) Close() { s.inner.Close() }

// Iterator scans live keys in ascending order at a fixed snapshot.
type Iterator struct {
	inner *shard.Iterator
}

// First positions at the smallest key.
func (it *Iterator) First() { it.inner.First() }

// SeekGE positions at the first key >= ukey.
func (it *Iterator) SeekGE(ukey []byte) { it.inner.SeekGE(ukey) }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.inner.Valid() }

// Next advances to the next live key.
func (it *Iterator) Next() { it.inner.Next() }

// Key returns the current key (valid until the next move).
func (it *Iterator) Key() []byte { return it.inner.Key() }

// Value returns the current value (valid until the next move).
func (it *Iterator) Value() []byte { return it.inner.Value() }

// Close releases the pinned snapshot.
func (it *Iterator) Close() { it.inner.Close() }
