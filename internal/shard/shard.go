// Package shard implements dLSM's range sharding (§VII): the key space is
// divided into λ ranges, each backed by an independent LSM-tree. Sharding
// multiplies Level-0 compaction parallelism and shrinks the L0 file count a
// reader must traverse, which is what lifts mixed read/write throughput
// (Fig 10). Nova-LSM's subranges are the same mechanism with λ=64.
//
// Since the elastic-sharding work the geometry is no longer fixed at open
// time: the routing table is an immutable, epoch-versioned value swapped
// atomically, so shards can split, merge, and migrate online (see
// rebalance.go) while readers and writers keep going.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dlsm/internal/balance"
	"dlsm/internal/engine"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// ErrBadBoundaries reports an invalid shard geometry: the boundary count
// must be λ-1 and the boundaries strictly ascending.
var ErrBadBoundaries = errors.New("shard: invalid boundaries")

// entry is one shard of the routing table: the engine owning a key range,
// its stable shard id (also its WAL slot id — stable across routing-table
// rebuilds, unlike the entry's position), the index of its backing memory
// node in DB.servers, and its load sampler (nil unless balancing).
type entry struct {
	eng     *engine.DB
	id      int
	srv     int
	sampler *keySampler
}

// routeTable is one immutable version of the shard geometry. Entry i owns
// user keys in [boundaries[i-1], boundaries[i]) with the outer ranges
// unbounded. A topology change builds a new table and swaps the pointer;
// epochs grow monotonically so in-flight writes can be drained by epoch.
// While a range moves, the table is published with a write gate over it:
// writers targeting [gateLo, gateHi) park until the next swap.
type routeTable struct {
	epoch      uint64
	boundaries [][]byte // len = len(entries)-1, ascending
	entries    []entry
	gated      bool
	gateLo     []byte // nil = -inf
	gateHi     []byte // nil = +inf
}

// route returns the entry index owning key.
func (rt *routeTable) route(key []byte) int {
	return sort.Search(len(rt.boundaries), func(i int) bool {
		return bytes.Compare(key, rt.boundaries[i]) < 0
	})
}

// lo returns entry i's inclusive lower bound (nil = -inf).
func (rt *routeTable) lo(i int) []byte {
	if i == 0 {
		return nil
	}
	return rt.boundaries[i-1]
}

// hi returns entry i's exclusive upper bound (nil = +inf).
func (rt *routeTable) hi(i int) []byte {
	if i == len(rt.boundaries) {
		return nil
	}
	return rt.boundaries[i]
}

// gateCovers reports whether key falls in the gated range.
func (rt *routeTable) gateCovers(key []byte) bool {
	if !rt.gated {
		return false
	}
	if rt.gateLo != nil && bytes.Compare(key, rt.gateLo) < 0 {
		return false
	}
	return rt.gateHi == nil || bytes.Compare(key, rt.gateHi) < 0
}

// indexOf returns the position of the entry with the given shard id, or -1.
func (rt *routeTable) indexOf(id int) int {
	for i := range rt.entries {
		if rt.entries[i].id == id {
			return i
		}
	}
	return -1
}

// DB is a λ-sharded dLSM with an elastic geometry.
type DB struct {
	env      *sim.Env
	cn       *rdma.Node
	servers  []*memnode.Server
	baseOpts engine.Options // normalized per-shard options

	routing atomic.Pointer[routeTable]

	// gateMu/gateCond park writers targeting a range mid-move; rebalMu
	// serializes topology changes (one split/merge/migrate at a time).
	gateMu   *sim.Mutex
	gateCond *sim.Cond
	rebalMu  *sim.Mutex

	nextID int // next unused shard id (== WAL slot id)

	owner  int               // logical identity naming every shard's log slot and lease
	leased bool              // every shard, including ones born later, claims a write lease
	holder int               // lease-holder identity (the compute index)
	leases map[int]leaseHold // by shard id

	secondary bool // read-only secondary: no rebalancing

	// Engines retired by merge/migrate stay open (readers may still hold
	// their iterators) until Close; their telemetry keeps counting toward
	// the merged totals.
	retMu   sync.Mutex
	retired []*engine.DB

	sessMu   sync.Mutex
	sessions map[*Session]struct{}

	bal    *balance.Balancer
	balReg *telemetry.Registry
}

// Lambda returns the current shard count.
func (db *DB) Lambda() int { return len(db.routing.Load().entries) }

// Shard returns the engine behind the shard currently at position i
// (observability, tests).
func (db *DB) Shard(i int) *engine.DB { return db.routing.Load().entries[i].eng }

// Boundaries returns a copy of the current shard boundaries (λ-1 keys,
// ascending). With AutoBalance or manual splits these drift from the
// geometry passed at open time.
func (db *DB) Boundaries() [][]byte {
	rt := db.routing.Load()
	out := make([][]byte, len(rt.boundaries))
	for i, b := range rt.boundaries {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// route returns the shard index owning key.
func (db *DB) route(key []byte) int {
	return db.routing.Load().route(key)
}

// Flush checkpoints every shard.
func (db *DB) Flush() {
	for _, e := range db.routing.Load().entries {
		e.eng.Flush()
	}
}

// WaitForCompactions drains compactions in every shard.
func (db *DB) WaitForCompactions() {
	for _, e := range db.routing.Load().entries {
		e.eng.WaitForCompactions()
	}
}

// perShardCounters and perShardHists are the engine series the snapshot
// re-keys by shard id when more than one shard exists, so rebalance
// decisions and the dlsm-bench metrics dump show per-shard load instead of
// only the aggregate.
var (
	perShardCounters = []string{"engine.writes", "engine.reads", "engine.stalls", "engine.stall.time_ns"}
	perShardHists    = []string{"engine.write.latency_ns", "engine.read.latency_ns"}
)

// keyedShardSnapshot re-keys one shard's load metrics under a
// "shard<id>." prefix.
func keyedShardSnapshot(id int, s telemetry.Snapshot) telemetry.Snapshot {
	out := telemetry.Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]telemetry.HistogramSnapshot{},
	}
	prefix := fmt.Sprintf("shard%d.", id)
	for _, name := range perShardCounters {
		if v, ok := s.Counters[name]; ok {
			out.Counters[prefix+strings.TrimPrefix(name, "engine.")] = v
		}
	}
	for _, name := range perShardHists {
		if h, ok := s.Histograms[name]; ok {
			out.Histograms[prefix+strings.TrimPrefix(name, "engine.")] = h
		}
	}
	return out
}

// TelemetrySnapshot merges the metric registries of all shards: counters
// and gauges sum, histogram buckets combine with quantiles recomputed.
// With more than one shard, per-shard op counters and latency histograms
// additionally appear keyed by shard id ("shard<id>.writes", ...); retired
// engines' history keeps counting toward the totals, and the rebalancer's
// own balance.* series ride along when AutoBalance is on.
func (db *DB) TelemetrySnapshot() telemetry.Snapshot {
	rt := db.routing.Load()
	var snaps []telemetry.Snapshot
	perShard := len(rt.entries) > 1
	for _, e := range rt.entries {
		s := e.eng.Telemetry().Snapshot()
		snaps = append(snaps, s)
		if perShard {
			snaps = append(snaps, keyedShardSnapshot(e.id, s))
		}
	}
	db.retMu.Lock()
	for _, e := range db.retired {
		snaps = append(snaps, e.Telemetry().Snapshot())
	}
	db.retMu.Unlock()
	if db.balReg != nil {
		snaps = append(snaps, db.balReg.Snapshot())
	}
	return telemetry.Merge(snaps...)
}

// SpaceUsed reports the remote-memory footprint of the memory nodes the
// current shards live on. Every term an engine reports is a whole-server
// number, so each distinct server counts once however many shards share it.
func (db *DB) SpaceUsed() int64 {
	var n int64
	seen := map[*memnode.Server]bool{}
	for _, e := range db.routing.Load().entries {
		if srv := db.servers[e.srv]; !seen[srv] {
			seen[srv] = true
			n += e.eng.SpaceUsed()
		}
	}
	return n
}

// Close stops the rebalancer, shuts every shard (and every engine retired
// by merges/migrations) down, then hands back any write leases so the next
// primary can Acquire instead of Takeover.
func (db *DB) Close() {
	if db.bal != nil {
		db.bal.Close()
	}
	for _, e := range db.routing.Load().entries {
		e.eng.Close()
	}
	db.retMu.Lock()
	retired := db.retired
	db.retired = nil
	db.retMu.Unlock()
	for _, e := range retired {
		e.Close()
	}
	db.releaseLeases()
}

// Session is a per-thread handle across all shards. It lazily opens one
// engine session per shard it touches (shards present at creation get
// theirs eagerly; shards born from later splits/migrations on first use).
type Session struct {
	db *DB

	// inflight publishes the routing epoch of the write this session is
	// currently applying (0 = idle). A topology change publishes its new
	// table first, then waits until no session is still mid-write under an
	// older epoch — after that, every write either landed in the source
	// shard before the fence or routes through the new table.
	inflight atomic.Uint64

	cache map[*engine.DB]*engine.Session
	order []*engine.Session // creation order, for deterministic Close
}

// NewSession creates a thread-local handle across all shards.
func (db *DB) NewSession() *Session {
	s := &Session{db: db, cache: map[*engine.DB]*engine.Session{}}
	for _, e := range db.routing.Load().entries {
		s.session(e.eng)
	}
	db.sessMu.Lock()
	db.sessions[s] = struct{}{}
	db.sessMu.Unlock()
	return s
}

// session returns this session's handle on eng, opening it on first use.
func (s *Session) session(eng *engine.DB) *engine.Session {
	if es, ok := s.cache[eng]; ok {
		return es
	}
	es := eng.NewSession()
	s.cache[eng] = es
	s.order = append(s.order, es)
	return es
}

// Close releases all per-shard sessions.
func (s *Session) Close() {
	s.db.sessMu.Lock()
	delete(s.db.sessions, s)
	s.db.sessMu.Unlock()
	for _, es := range s.order {
		es.Close()
	}
}

// writeSession routes a write: it publishes the routing epoch it is about
// to write under, re-checks the table did not move underneath (the
// publish-then-recheck makes the rebalancer's drain sound), and parks on
// the gate if the key's range is mid-move.
func (s *Session) writeSession(key []byte) *engine.Session {
	db := s.db
	for {
		rt := db.routing.Load()
		s.inflight.Store(rt.epoch)
		if db.routing.Load() != rt {
			s.inflight.Store(0)
			continue
		}
		if rt.gateCovers(key) {
			s.inflight.Store(0)
			db.waitGate(rt)
			continue
		}
		e := rt.entries[rt.route(key)]
		e.sampler.offer(key)
		return s.session(e.eng)
	}
}

// waitGate blocks until the gated table rt is replaced.
func (db *DB) waitGate(rt *routeTable) {
	db.gateMu.Lock()
	for db.routing.Load() == rt {
		db.gateCond.Wait()
	}
	db.gateMu.Unlock()
}

// Put writes key to its shard.
func (s *Session) Put(key, value []byte) error {
	es := s.writeSession(key)
	err := es.Put(key, value)
	s.inflight.Store(0)
	return err
}

// Delete tombstones key in its shard.
func (s *Session) Delete(key []byte) error {
	es := s.writeSession(key)
	err := es.Delete(key)
	s.inflight.Store(0)
	return err
}

// Apply routes the batch's operations to their shards and applies every
// shard's sub-batch with one sequence-range claim (engine.Session.Apply).
// Operations apply in shard order, not the batch's insertion order. Every
// shard is attempted even after a failure, so one stalled shard cannot
// silently strand later shards' operations; the returned error joins the
// per-shard failures (a failed shard's sub-batch was not applied, the
// other shards' were). The single-shard case forwards the batch untouched.
func (s *Session) Apply(b *engine.Batch) error {
	db := s.db
	for {
		rt := db.routing.Load()
		s.inflight.Store(rt.epoch)
		if db.routing.Load() != rt {
			s.inflight.Store(0)
			continue
		}
		if rt.gated {
			gated := false
			for i := 0; i < b.Len(); i++ {
				key, _, _ := b.Entry(i)
				if rt.gateCovers(key) {
					gated = true
					break
				}
			}
			if gated {
				s.inflight.Store(0)
				db.waitGate(rt)
				continue
			}
		}
		err := s.applyWith(rt, b)
		s.inflight.Store(0)
		return err
	}
}

func (s *Session) applyWith(rt *routeTable, b *engine.Batch) error {
	if len(rt.entries) == 1 {
		return s.session(rt.entries[0].eng).Apply(b)
	}
	subs := make([]engine.Batch, len(rt.entries))
	for i := 0; i < b.Len(); i++ {
		key, value, del := b.Entry(i)
		j := rt.route(key)
		rt.entries[j].sampler.offer(key)
		sub := &subs[j]
		if del {
			sub.Delete(key)
		} else {
			sub.Put(key, value)
		}
	}
	var errs []error
	for i := range subs {
		if subs[i].Len() == 0 {
			continue
		}
		if err := s.session(rt.entries[i].eng).Apply(&subs[i]); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", rt.entries[i].id, err))
		}
	}
	return errors.Join(errs...)
}

// Get reads key from its shard. Reads never park on a move gate: until the
// table flips they are served by the source shard, which stays complete
// for the moving range up to the fence.
func (s *Session) Get(key []byte) ([]byte, error) {
	rt := s.db.routing.Load()
	e := rt.entries[rt.route(key)]
	e.sampler.offer(key)
	return s.session(e.eng).Get(key)
}

// GetOpts is Get with an explicit read policy.
func (s *Session) GetOpts(key []byte, ro engine.ReadOptions) ([]byte, error) {
	rt := s.db.routing.Load()
	e := rt.entries[rt.route(key)]
	e.sampler.offer(key)
	return s.session(e.eng).GetOpts(key, ro)
}

// NewIterator scans across all shards in key order. Shards are disjoint
// ranges, so the scan simply concatenates per-shard iterators.
func (s *Session) NewIterator() *Iterator {
	return s.NewIteratorOpts(engine.ReadOptions{})
}

// NewIteratorOpts is NewIterator with an explicit read policy. The
// iterator is pinned to the routing table current at creation; a
// concurrent split/merge/migrate does not disturb it.
func (s *Session) NewIteratorOpts(ro engine.ReadOptions) *Iterator {
	rt := s.db.routing.Load()
	its := make([]*engine.Iterator, len(rt.entries))
	for i, e := range rt.entries {
		its[i] = s.session(e.eng).NewIteratorOpts(ro)
	}
	return &Iterator{rt: rt, its: its, cur: -1}
}

// Iterator concatenates the shard iterators in boundary order. Each shard
// iterator is clamped at its shard's upper boundary: after a split the
// source engine still physically holds the moved keys (they are reclaimed
// only when the DB closes), and the clamp keeps that garbage invisible.
type Iterator struct {
	rt  *routeTable
	its []*engine.Iterator
	cur int
}

// shardValid reports whether shard i's iterator is positioned inside its
// owned range.
func (it *Iterator) shardValid(i int) bool {
	x := it.its[i]
	if !x.Valid() {
		return false
	}
	hi := it.rt.hi(i)
	return hi == nil || bytes.Compare(x.Key(), hi) < 0
}

// First positions at the smallest key of the first non-empty shard.
func (it *Iterator) First() {
	it.cur = 0
	it.its[0].First()
	it.skipEmpty()
}

// SeekGE positions at the first key >= ukey.
func (it *Iterator) SeekGE(ukey []byte) {
	it.cur = it.rt.route(ukey)
	it.its[it.cur].SeekGE(ukey)
	it.skipEmpty()
}

func (it *Iterator) skipEmpty() {
	for it.cur < len(it.its) && !it.shardValid(it.cur) {
		it.cur++
		if it.cur < len(it.its) {
			it.its[it.cur].First()
		}
	}
}

// Valid reports whether the iterator is positioned.
func (it *Iterator) Valid() bool {
	return it.cur >= 0 && it.cur < len(it.its) && it.shardValid(it.cur)
}

// Next advances in global key order.
func (it *Iterator) Next() {
	it.its[it.cur].Next()
	it.skipEmpty()
}

// Key returns the current user key.
func (it *Iterator) Key() []byte { return it.its[it.cur].Key() }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.its[it.cur].Value() }

// Close releases all shard iterators.
func (it *Iterator) Close() {
	for _, x := range it.its {
		x.Close()
	}
}
