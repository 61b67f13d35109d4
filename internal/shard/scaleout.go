package shard

import (
	"errors"
	"fmt"

	"dlsm/internal/engine"
	"dlsm/internal/lease"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
)

// ErrLeaseHeld is returned by NewPrimary when another compute node holds a
// shard's write lease (use Takeover to depose a dead one).
var ErrLeaseHeld = lease.ErrHeld

// leaseHold pairs one shard's lease client with the lease it holds; Close
// hands the lease back.
type leaseHold struct {
	client *lease.Client
	l      lease.Lease
}

// NewPrimary is New plus write-lease acquisition: before opening shard i it
// acquires the (Options.WALOwner, i) lease on the shard's memory node under
// the identity holder (the compute index — it must be stable across
// restarts so a recovered node recognizes its own leases), and wires the
// lease word into the shard's WAL as the commit fence. If any shard's lease
// is held by another live compute node, everything already claimed is
// released and ErrLeaseHeld returned. Requires Options.Durability (the
// fence lives on the WAL commit path, and lease handoff replays the log).
// Shards born from later splits claim their own lease the same way.
func NewPrimary(cn *rdma.Node, servers []*memnode.Server, lambda int, boundaries [][]byte, opts engine.Options, holder int) (*DB, error) {
	if opts.Durability == engine.DurabilityNone {
		return nil, errors.New("shard: NewPrimary requires Options.Durability (the lease fence rides the WAL)")
	}
	return openLeased(cn, servers, lambda, boundaries, opts, holder, false)
}

// Takeover deposes the current holder of every shard lease and recovers
// the shards from their remote write-ahead logs. The lease CAS lands
// before the log slot is read, so the deposed owner's unacknowledged
// appends can never ack afterwards (its commit fence fails with
// engine.ErrFenced) and the recovery observes every write it ever
// acknowledged. The arguments must match the dead primary's NewPrimary
// call the way Recover's must match New's; holder is the new owner's own
// compute index.
func Takeover(cn *rdma.Node, servers []*memnode.Server, lambda int, boundaries [][]byte, opts engine.Options, holder int) (*DB, error) {
	return openLeased(cn, servers, lambda, boundaries, opts, holder, true)
}

// openLeased opens (takeover: recovers) the λ shards with a write lease
// claimed per shard before its engine touches the log slot.
func openLeased(cn *rdma.Node, servers []*memnode.Server, lambda int, boundaries [][]byte, opts engine.Options, holder int, takeover bool) (*DB, error) {
	lambda, opts, err := normalize(lambda, boundaries, opts)
	if err != nil {
		return nil, err
	}
	db := newShell(cn, servers, opts, lambda)
	db.initBoundaries = boundaries
	db.leased = true
	db.holder = holder
	var entries []entry
	fail := func(err error) (*DB, error) {
		closeEntries(entries)
		db.releaseLeases()
		return nil, err
	}
	for i := 0; i < lambda; i++ {
		srv := servers[i%len(servers)]
		hold, err := claimShard(cn, srv, opts.Replica, opts.WALOwner, i, holder, takeover)
		if err != nil {
			return fail(fmt.Errorf("shard %d lease: %w", i, err))
		}
		db.leases[i] = hold
		opts.WALShard = i
		opts.WALFence = hold.client.Addr()
		opts.WALFenceWord = hold.l.Word()
		e := entry{id: i, srv: i % len(servers)}
		if takeover {
			e.eng, err = engine.Recover(cn, srv, opts)
		} else {
			e.eng, err = engine.TryOpen(cn, srv, opts)
		}
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		if opts.AutoBalance {
			e.sampler = newKeySampler()
		}
		entries = append(entries, e)
	}
	db.finish(entries)
	return db, nil
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
	for id, h := range db.leases {
		_ = h.client.Release(h.l)
		h.client.Close()
		delete(db.leases, id)
	}
}

// OpenSecondary attaches a read-only secondary across all λ shards of the
// primary identified by Options.WALOwner (see engine.OpenSecondary). The
// geometry arguments must match the primary's; the secondary builds its
// own compute-local state per shard and serves reads at the primary's last
// published checkpoints. Secondaries never rebalance — the routing table
// is compute-local, so a primary's online splits are invisible here; reads
// stay correct regardless because secondaries route over the original
// geometry, whose shards keep serving their initial full ranges.
func OpenSecondary(cn *rdma.Node, servers []*memnode.Server, lambda int, boundaries [][]byte, opts engine.Options) (*DB, error) {
	lambda, opts, err := normalize(lambda, boundaries, opts)
	if err != nil {
		return nil, err
	}
	db := newShell(cn, servers, opts, lambda)
	db.initBoundaries = boundaries
	db.secondary = true
	var entries []entry
	for i := 0; i < lambda; i++ {
		opts.WALShard = i
		sh, err := engine.OpenSecondary(cn, servers[i%len(servers)], opts)
		if err != nil {
			closeEntries(entries)
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		entries = append(entries, entry{eng: sh, id: i, srv: i % len(servers)})
	}
	db.finish(entries)
	return db, nil
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
