package shard

import (
	"bytes"
	"errors"
	"fmt"

	"dlsm/internal/engine"
	"dlsm/internal/lease"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// ErrLeaseHeld is returned when a leased RolePrimary finds another compute
// node holding a shard's write lease (RoleTakeover deposes a dead one).
var ErrLeaseHeld = lease.ErrHeld

// Role selects the protocol Open runs for every shard.
type Role int

const (
	// RolePrimary opens a fresh read-write DB. With Placement.Lease set it
	// additionally acquires one epoch-fenced write lease per shard
	// (multi-compute scale-out); without a lease it logs under its own
	// compute index.
	RolePrimary Role = iota
	// RoleSecondary attaches a read-only secondary to the shard group of
	// the primary identified by Placement.Owner: Gets and scans serve from
	// the remote SSTables at the primary's last published checkpoint
	// (bounded staleness); writes return ErrReadOnly. Refresh with
	// DB.RefreshView or ReadOptions.MaxStaleness. Secondaries never
	// rebalance — the routing table is compute-local, so a primary's online
	// splits are invisible here; reads stay correct regardless because they
	// route over the original geometry, whose shards keep serving their
	// initial full ranges.
	RoleSecondary
	// RoleTakeover deposes the current lease holder of Placement.Owner's
	// shard group (the CAS lands before the log slot is read, so the
	// deposed primary's unacknowledged appends fail with ErrFenced and can
	// never ack afterwards) and rebuilds the shards from their remote
	// write-ahead logs: zero-loss failover to a new compute node.
	RoleTakeover
	// RoleRecover rebuilds the DB that compute node Placement.Owner ran
	// before crashing, replaying its remote write-ahead logs (§VIII). The
	// Placement geometry must match the dead DB's — the *initial* one: the
	// routing table is compute-local state, so after online splits or
	// merges recover with the geometry it last ran. Options.Durability
	// must be set.
	RoleRecover
)

// String names the role for error messages.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "RolePrimary"
	case RoleSecondary:
		return "RoleSecondary"
	case RoleTakeover:
		return "RoleTakeover"
	case RoleRecover:
		return "RoleRecover"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Placement names where a DB runs and which remote resources it binds: the
// compute node it runs on, the logical owner whose log slots and shard
// leases it uses, the memory nodes its shards round-robin across, and the
// shard geometry. The zero value places a single-shard DB on the
// deployment's first compute node over all its memory nodes.
//
// The owner-remap rule: ComputeIdx chooses where the DB runs, Owner names
// whose log slots (and shard leases) it adopts. A recovered or taken-over
// DB keeps logging under Owner — never ComputeIdx — so a later recovery,
// from any compute node, derives the same slot keys and finds the same
// logs. Remapping the owner itself would orphan the dead node's slots and
// silently start an empty DB. A primary without a lease is a fresh DB with
// no predecessor's slots to adopt: it logs under its own ComputeIdx.
type Placement struct {
	ComputeIdx int               // compute node the DB runs on (default 0); also its lease-holder identity
	Owner      int               // logical identity whose slots/leases it uses (default 0)
	Servers    []*memnode.Server // shard i uses Servers[i % len]; dlsm.OpenDB reads nil as every server of the deployment
	Lambda     int               // shard count (§VII); 0 means 1
	Boundaries [][]byte          // Lambda-1 ascending user-key split points: a starting geometry, splits and merges move them

	// Lease makes a RolePrimary the shard group's single writer under an
	// epoch-fenced per-shard lease (ErrLeaseHeld if another compute node
	// owns one; the fence rides the WAL commit path, so Options.Durability
	// is required). RoleTakeover implies it.
	Lease bool
}

// check rejects the role/placement/option combinations the open path
// would otherwise silently drop, and returns the owner identity the DB
// binds its log slots and leases under.
func (p Placement) check(role Role, opts engine.Options) (owner int, err error) {
	leased := p.Lease || role == RoleTakeover
	switch {
	case role < RolePrimary || role > RoleRecover:
		return 0, fmt.Errorf("shard: unknown role %v", role)
	case len(p.Servers) == 0:
		return 0, fmt.Errorf("shard: Placement.Servers names no memory node")
	case p.Lease && (role == RoleSecondary || role == RoleRecover):
		return 0, fmt.Errorf("shard: Placement.Lease conflicts with %v: only a primary or a takeover holds write leases", role)
	case role == RoleSecondary && opts.AutoBalance:
		return 0, fmt.Errorf("shard: Options.AutoBalance conflicts with %v: a read-only secondary cannot rebalance", role)
	case leased && opts.Durability == engine.DurabilityNone:
		return 0, fmt.Errorf("shard: Placement.Lease requires Options.Durability (the lease fence rides the WAL)")
	}
	if role != RolePrimary || p.Lease {
		return p.Owner, nil
	}
	// A lease-less primary is a fresh DB: it has no predecessor's slots to
	// adopt, so it logs under its own compute index.
	if p.Owner != 0 && p.Owner != p.ComputeIdx {
		return 0, fmt.Errorf("shard: a primary without a lease logs under its own compute index; Owner %d conflicts with ComputeIdx %d", p.Owner, p.ComputeIdx)
	}
	return p.ComputeIdx, nil
}

// Open opens, recovers, takes over or attaches to a λ-sharded DB on compute
// node cn — the one open path: role picks the protocol, p the memory nodes,
// shard geometry and slot identity, opts configures each shard's engine.
// Shards open in index order, each claiming its write lease (when leased)
// before its engine touches the log slot; on any failure the shards already
// open are closed, their leases handed back, and the error returned. Every
// shard binds the log slot (owner, shard id), so DBs on different compute
// nodes sharing a memory node never collide and a later recovery finds the
// same slots again.
func Open(cn *rdma.Node, role Role, p Placement, opts engine.Options) (*DB, error) {
	owner, err := p.check(role, opts)
	if err != nil {
		return nil, err
	}
	lambda, opts, err := normalize(p.Lambda, p.Boundaries, opts)
	if err != nil {
		return nil, err
	}
	env := cn.Fabric().Env()
	db := &DB{
		env:       env,
		cn:        cn,
		servers:   p.Servers,
		baseOpts:  opts,
		owner:     owner,
		holder:    p.ComputeIdx,
		leased:    p.Lease || role == RoleTakeover,
		secondary: role == RoleSecondary,
		gateMu:    sim.NewMutex(env),
		rebalMu:   sim.NewMutex(env),
		leases:    map[int]leaseHold{},
		sessions:  map[*Session]struct{}{},
	}
	db.gateCond = sim.NewNamedCond(env, db.gateMu, "shard.gate")
	var entries []entry
	for i := 0; i < lambda; i++ {
		e, err := db.openShard(i%len(p.Servers), role)
		if err != nil {
			closeEntries(entries)
			db.releaseLeases()
			return nil, err
		}
		entries = append(entries, e)
	}
	db.routing.Store(&routeTable{epoch: 1, boundaries: p.Boundaries, entries: entries})
	if opts.AutoBalance {
		db.startBalancer()
	}
	return db, nil
}

// New is Open for the plain primary: λ fresh shards under compute identity
// 0, no lease.
func New(cn *rdma.Node, servers []*memnode.Server, lambda int, boundaries [][]byte, opts engine.Options) (*DB, error) {
	return Open(cn, RolePrimary, Placement{Servers: servers, Lambda: lambda, Boundaries: boundaries}, opts)
}

// openShard opens one shard's engine on servers[srv] under the next unused
// shard id (also its log-slot and lease id — stable across routing-table
// rebuilds). The initial open runs it once per shard under the DB's role;
// splits and migrations run it with RolePrimary for the fresh engine they
// add. On a leased DB the shard's write lease is claimed first (taken over
// under RoleTakeover) and wired into the engine's commit fence. Callers
// after the initial open hold rebalMu.
func (db *DB) openShard(srv int, role Role) (entry, error) {
	id := db.nextID
	db.nextID++
	server := db.servers[srv]
	bind := engine.Binding{Owner: db.owner, Shard: id}
	if db.leased {
		hold, err := claimShard(db.cn, server, db.baseOpts.Replica, db.owner, id, db.holder, role == RoleTakeover)
		if err != nil {
			return entry{}, fmt.Errorf("shard %d lease: %w", id, err)
		}
		db.leases[id] = hold
		bind.Fence, bind.FenceWord = hold.client.Addr(), hold.l.Word()
	}
	var eng *engine.DB
	var err error
	switch role {
	case RoleSecondary:
		eng, err = engine.OpenSecondary(db.cn, server, db.baseOpts, bind)
	case RoleTakeover, RoleRecover:
		eng, err = engine.Recover(db.cn, server, db.baseOpts, bind)
	default:
		eng, err = engine.Open(db.cn, server, db.baseOpts, bind)
	}
	if err != nil {
		db.dropLease(id)
		return entry{}, fmt.Errorf("shard %d: %w", id, err)
	}
	e := entry{eng: eng, id: id, srv: srv}
	if db.baseOpts.AutoBalance {
		e.sampler = newKeySampler()
	}
	return e, nil
}

func closeEntries(entries []entry) {
	for _, e := range entries {
		e.eng.Close()
	}
}

// normalize validates the shard geometry and derives the per-shard options.
func normalize(lambda int, boundaries [][]byte, opts engine.Options) (int, engine.Options, error) {
	if lambda < 1 {
		lambda = 1
	}
	if len(boundaries) != lambda-1 {
		return 0, opts, fmt.Errorf("%w: need exactly lambda-1 boundaries (lambda=%d, got %d)",
			ErrBadBoundaries, lambda, len(boundaries))
	}
	for i := 1; i < len(boundaries); i++ {
		if bytes.Compare(boundaries[i-1], boundaries[i]) >= 0 {
			return 0, opts, fmt.Errorf("%w: not ascending at index %d", ErrBadBoundaries, i)
		}
	}
	// Options.CacheBudgetBytes is the whole compute node's cache DRAM;
	// each shard gets an equal slice so λ doesn't multiply the footprint.
	opts.CacheBudgetBytes /= int64(lambda)
	return lambda, opts, nil
}

// UniformBoundaries splits the printf("%0*d", width, i) key space used by
// the db_bench-style workloads into lambda equal ranges over [0, maxKey).
func UniformBoundaries(lambda int, maxKey int, format func(i int) []byte) [][]byte {
	var out [][]byte
	for i := 1; i < lambda; i++ {
		out = append(out, format(maxKey*i/lambda))
	}
	return out
}

// ClusterServers is §IX's shard placement for a cluster of c compute nodes
// running λ shards each over the m memory nodes in servers: the c·λ shard
// LSM-trees are dealt round-robin, so compute node compute's shard j lives
// on servers[(compute·λ+j) mod m]. It returns servers rotated to start
// there — the Placement.Servers of that compute node's DB. Open and a later
// recovery must agree on it or recovery would read the wrong memory nodes.
func ClusterServers(servers []*memnode.Server, compute, lambda int) []*memnode.Server {
	out := make([]*memnode.Server, len(servers))
	for j := range servers {
		out[j] = servers[(compute*lambda+j)%len(servers)]
	}
	return out
}

// leaseHold pairs one shard's lease client with the lease it holds; Close
// hands the lease back.
type leaseHold struct {
	client *lease.Client
	l      lease.Lease
}

// claimShard opens (creating on first use) the lease entry of
// (owner, shard) and claims it. With a replica memory node configured, the
// replica's lease table gets a same-key entry and the client writes every
// claimed word through to it, so a takeover after the primary memory node
// dies still observes the current epoch (see lease.Client.SetMirror).
func claimShard(cn *rdma.Node, srv, replica *memnode.Server, owner, shard, holder int, takeover bool) (leaseHold, error) {
	ls, err := srv.OpenLease(lease.SlotKey(owner, shard))
	if err != nil {
		return leaseHold{}, err
	}
	cl := lease.NewClient(cn, srv.Node(), ls.Addr, holder)
	if replica != nil {
		rs, rerr := replica.OpenLease(lease.SlotKey(owner, shard))
		if rerr != nil {
			cl.Close()
			return leaseHold{}, fmt.Errorf("replica lease entry: %w", rerr)
		}
		cl.SetMirror(replica.Node(), rs.Addr)
	}
	var l lease.Lease
	if takeover {
		l, err = cl.Takeover()
	} else {
		l, err = cl.Acquire()
	}
	if err != nil {
		cl.Close()
		return leaseHold{}, err
	}
	return leaseHold{client: cl, l: l}, nil
}

// releaseLeases hands every held shard lease back. A hold deposed by
// takeover (or unreachable after a crash) is tolerated: the entry already
// belongs to — or will be taken over by — the next owner, and releasing
// never rewinds the epoch either way.
func (db *DB) releaseLeases() {
	for id := range db.leases {
		db.dropLease(id)
	}
}

// dropLease hands back shard id's write lease, if it holds one.
func (db *DB) dropLease(id int) {
	if h, ok := db.leases[id]; ok {
		_ = h.client.Release(h.l)
		h.client.Close()
		delete(db.leases, id)
	}
}

// RefreshView refreshes every shard of a read-only secondary from its
// primary's latest published WAL checkpoint.
func (db *DB) RefreshView() error {
	var errs []error
	for _, e := range db.routing.Load().entries {
		if err := e.eng.RefreshView(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", e.id, err))
		}
	}
	return errors.Join(errs...)
}

// PublishCheckpoint synchronously publishes every shard's current
// checkpoint; call after Flush to make flushed writes observable by
// secondaries' next RefreshView.
func (db *DB) PublishCheckpoint() error {
	var errs []error
	for _, e := range db.routing.Load().entries {
		if err := e.eng.PublishCheckpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", e.id, err))
		}
	}
	return errors.Join(errs...)
}
