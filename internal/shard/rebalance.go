package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dlsm/internal/balance"
	"dlsm/internal/engine"
	"dlsm/internal/keys"
	"dlsm/internal/telemetry"
	"dlsm/internal/wal"
)

// Errors returned by the online topology operations.
var (
	// ErrNoSuchShard reports a shard id absent from the routing table.
	ErrNoSuchShard = errors.New("shard: no such shard")
	// ErrBadPivot reports a split pivot outside the shard's open interval.
	ErrBadPivot = errors.New("shard: split pivot outside shard range")
	// ErrSecondary reports a topology operation on a read-only secondary.
	ErrSecondary = errors.New("shard: read-only secondary cannot rebalance")
	// ErrNoPivot reports a split with no usable load-weighted pivot yet.
	ErrNoPivot = errors.New("shard: no load samples to derive a split pivot")
)

// ---------------------------------------------------------------------------
// Key sampling
//
// The rebalancer needs a load-weighted pivot to split a hot shard: the
// median of recently accessed keys divides the shard's *traffic* in half,
// where the midpoint of its boundaries would only divide its keyspace.
// Each entry carries a sampler fed (subsampled) from the routed read and
// write paths. Host-side state under a host mutex: zero virtual time, no
// simulation entity interaction.

const (
	samplerEvery = 16  // keep every 16th offered key
	samplerSize  = 128 // ring capacity
)

// keySampler is a reservoir of recently routed keys. All methods are
// nil-safe so the data path can call offer unconditionally.
type keySampler struct {
	mu   sync.Mutex
	n    uint64
	ring [][]byte
	next int
}

func newKeySampler() *keySampler { return &keySampler{} }

// offer records every samplerEvery-th key.
func (ks *keySampler) offer(key []byte) {
	if ks == nil {
		return
	}
	ks.mu.Lock()
	ks.n++
	if ks.n%samplerEvery == 0 {
		k := append([]byte(nil), key...)
		if len(ks.ring) < samplerSize {
			ks.ring = append(ks.ring, k)
		} else {
			ks.ring[ks.next] = k
			ks.next = (ks.next + 1) % samplerSize
		}
	}
	ks.mu.Unlock()
}

// pivot returns the median sampled key strictly inside (lo, hi), or nil
// when no sample qualifies. Strictness matters: a boundary equal to lo
// would leave the left half empty and the boundary list non-ascending.
func (ks *keySampler) pivot(lo, hi []byte) []byte {
	if ks == nil {
		return nil
	}
	ks.mu.Lock()
	var in [][]byte
	for _, k := range ks.ring {
		if lo != nil && bytes.Compare(k, lo) <= 0 {
			continue
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			continue
		}
		in = append(in, k)
	}
	ks.mu.Unlock()
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return bytes.Compare(in[i], in[j]) < 0 })
	return append([]byte(nil), in[len(in)/2]...)
}

// ---------------------------------------------------------------------------
// Cut-over protocol
//
// Every topology change moves the writes of one key range from a source
// engine to a destination without losing an acknowledged write:
//
//  1. Bulk copy. With writers still running, copy the range's live keys at
//     snapshot s0 (split/merge and the migrate fallback iterate; migrate's
//     fast path clones SSTable extents server→server via repl_clone).
//  2. Gate. Publish the same routing table with a write gate over the
//     range at epoch g: new writes to the range park on gateCond.
//  3. Drain. Wait until no session is mid-write under an epoch < g (each
//     session publishes its routing epoch in Session.inflight before
//     writing and re-checks the table pointer after — so every write
//     either observes the gate or is observed by this drain).
//  4. Fence. src.FenceNow() burns the source's sequence range at s1: all
//     acknowledged writes are ≤ s1 and any later source write would be
//     > s1 (there are none — the gate holds them, and after the flip
//     nothing routes there).
//  5. Delta. Copy exactly the keys that changed in (s0, s1] — tombstones
//     included, so deletions travel too. The migrate fast path instead
//     diff-clones new tables and replays the WAL tail above the flushed
//     horizon.
//  6. Flip. Publish the final table (epoch g+1) and broadcast the gate
//     open. Parked writers re-route through the new table.
//
// Reads never park: until the flip they route to the source, which stays
// complete for the range up to the fence. The union of bulk copy and
// delta holds every acknowledged write by construction — the same
// burned-sequence argument the WAL's flush/sizeSwitch fencing makes.

// publish atomically swaps the routing table and wakes gate-parked
// writers. The store happens under gateMu so a writer that checked the
// table and decided to park cannot miss the broadcast.
func (db *DB) publish(rt *routeTable) {
	db.gateMu.Lock()
	db.routing.Store(rt)
	db.gateCond.Broadcast()
	db.gateMu.Unlock()
}

// installGate republishes the current table with a write gate over
// [lo, hi) and returns the gated epoch.
func (db *DB) installGate(lo, hi []byte) uint64 {
	rt := db.routing.Load()
	g := &routeTable{
		epoch:      rt.epoch + 1,
		boundaries: rt.boundaries,
		entries:    rt.entries,
		gated:      true,
		gateLo:     lo,
		gateHi:     hi,
	}
	db.publish(g)
	return g.epoch
}

// ungate republishes the current table without its gate (failure paths).
func (db *DB) ungate() {
	rt := db.routing.Load()
	db.publish(&routeTable{epoch: rt.epoch + 1, boundaries: rt.boundaries, entries: rt.entries})
}

// drainBelow blocks until no session is mid-write under a routing epoch
// older than epoch. Writes under the gated epoch to un-gated ranges keep
// flowing; only stragglers that routed before the gate are awaited.
func (db *DB) drainBelow(epoch uint64) {
	for {
		busy := false
		db.sessMu.Lock()
		for s := range db.sessions {
			if v := s.inflight.Load(); v != 0 && v < epoch {
				busy = true
				break
			}
		}
		db.sessMu.Unlock()
		if !busy {
			return
		}
		db.env.Sleep(10 * time.Microsecond)
	}
}

// copyRange copies [lo, hi) from src to dst at snapshot snap, skipping
// keys whose newest version is ≤ minSeq. With tombstones set, deletions
// in (minSeq, snap] are forwarded as dst deletes — a delta copy must move
// the absences, not just the values.
func copyRange(src, dst *engine.DB, lo, hi []byte, snap, minSeq keys.Seq, tombstones bool) error {
	ss := src.NewSession()
	defer ss.Close()
	ds := dst.NewSession()
	defer ds.Close()
	it := ss.NewIteratorOpts(engine.ReadOptions{
		Snapshot:          snap,
		MinSeq:            minSeq,
		IncludeTombstones: tombstones,
	})
	defer it.Close()
	if lo == nil {
		it.First()
	} else {
		it.SeekGE(lo)
	}
	for ; it.Valid(); it.Next() {
		if hi != nil && bytes.Compare(it.Key(), hi) >= 0 {
			break
		}
		var err error
		if it.IsTombstone() {
			err = ds.Delete(it.Key())
		} else {
			err = ds.Put(it.Key(), it.Value())
		}
		if err != nil {
			return err
		}
	}
	return it.Error()
}

// purgeRange tombstones every key dst's engine currently holds in
// [lo, hi). A merge runs it on the absorbing engine first: if that engine
// once owned the range (a split that is now being undone), it still holds
// the moved keys as garbage below its clamped boundary, and copying the
// donor's live set over the garbage would resurrect anything the donor
// deleted in between. Purging first makes the absorbed range exactly the
// donor's live set.
func purgeRange(eng *engine.DB, lo, hi []byte) error {
	s := eng.NewSession()
	defer s.Close()
	it := s.NewIteratorOpts(engine.ReadOptions{})
	defer it.Close()
	if lo == nil {
		it.First()
	} else {
		it.SeekGE(lo)
	}
	for ; it.Valid(); it.Next() {
		if hi != nil && bytes.Compare(it.Key(), hi) >= 0 {
			break
		}
		if err := s.Delete(it.Key()); err != nil {
			return err
		}
	}
	return it.Error()
}

// abandonShard closes a fresh shard that never entered the routing table
// (failure paths) and hands back its lease.
func (db *DB) abandonShard(e entry) {
	e.eng.Close()
	db.dropLease(e.id)
}

// retire moves an engine the routing table no longer references to the
// graveyard. It stays open until DB.Close — sessions may still hold
// iterators pinned to an older table — and its lease stays held (its WAL
// slot still carries our data; releasing it would let another primary
// claim the slot).
func (db *DB) retire(e entry) {
	db.retMu.Lock()
	db.retired = append(db.retired, e.eng)
	db.retMu.Unlock()
}

// Route returns the position of the shard owning key. Positions shift as
// the geometry changes; ShardID converts a position to the stable id the
// topology operations take.
func (db *DB) Route(key []byte) int { return db.route(key) }

// ShardID returns the stable id of the shard currently at position i.
func (db *DB) ShardID(i int) int { return db.routing.Load().entries[i].id }

// MergeAt folds the two shards meeting at boundary into one; boundary
// must be one of the current Boundaries().
func (db *DB) MergeAt(boundary []byte) error {
	rt := db.routing.Load()
	for i, b := range rt.boundaries {
		if bytes.Equal(b, boundary) {
			return db.MergeShard(rt.entries[i].id)
		}
	}
	return fmt.Errorf("shard: %q is not a current shard boundary", boundary)
}

// SplitShard divides the identified shard at a load-weighted pivot — the
// median of its recently sampled keys (AutoBalance samplers). Without
// samples it fails with ErrNoPivot; use SplitShardAt to supply a pivot.
func (db *DB) SplitShard(id int) error {
	rt := db.routing.Load()
	idx := rt.indexOf(id)
	if idx < 0 {
		return fmt.Errorf("%w: %d", ErrNoSuchShard, id)
	}
	pivot := rt.entries[idx].sampler.pivot(rt.lo(idx), rt.hi(idx))
	if pivot == nil {
		return fmt.Errorf("%w (shard %d)", ErrNoPivot, id)
	}
	return db.SplitShardAt(id, pivot)
}

// SplitShardAt splits the identified shard into [lo, pivot) and
// [pivot, hi), the right half served by a fresh engine on the same memory
// node. Writers to [pivot, hi) pause only for the drain+fence+delta
// window; everything else keeps going throughout.
func (db *DB) SplitShardAt(id int, pivot []byte) error {
	if db.secondary {
		return ErrSecondary
	}
	db.rebalMu.Lock()
	defer db.rebalMu.Unlock()

	rt0 := db.routing.Load()
	idx := rt0.indexOf(id)
	if idx < 0 {
		return fmt.Errorf("%w: %d", ErrNoSuchShard, id)
	}
	lo, hi := rt0.lo(idx), rt0.hi(idx)
	if pivot == nil ||
		(lo != nil && bytes.Compare(pivot, lo) <= 0) ||
		(hi != nil && bytes.Compare(pivot, hi) >= 0) {
		return fmt.Errorf("%w (shard %d)", ErrBadPivot, id)
	}
	src := rt0.entries[idx]

	dst, err := db.openShard(src.srv, RolePrimary)
	if err != nil {
		return err
	}
	s0 := src.eng.CurrentSeq()
	if err := copyRange(src.eng, dst.eng, pivot, hi, s0, 0, false); err != nil {
		db.abandonShard(dst)
		return fmt.Errorf("shard: split bulk copy: %w", err)
	}

	gateEpoch := db.installGate(pivot, hi)
	db.drainBelow(gateEpoch)
	fence := src.eng.FenceNow()
	if err := copyRange(src.eng, dst.eng, pivot, hi, fence, s0, true); err != nil {
		db.ungate()
		db.abandonShard(dst)
		return fmt.Errorf("shard: split delta copy: %w", err)
	}

	cur := db.routing.Load()
	boundaries := make([][]byte, 0, len(cur.boundaries)+1)
	boundaries = append(boundaries, cur.boundaries[:idx]...)
	boundaries = append(boundaries, pivot)
	boundaries = append(boundaries, cur.boundaries[idx:]...)
	entries := make([]entry, 0, len(cur.entries)+1)
	entries = append(entries, cur.entries[:idx+1]...)
	entries = append(entries, dst)
	entries = append(entries, cur.entries[idx+1:]...)
	db.publish(&routeTable{epoch: cur.epoch + 1, boundaries: boundaries, entries: entries})
	return nil
}

// MergeShard folds the right neighbor of the identified shard into it:
// the right's live keys are copied into the left engine and the boundary
// between them disappears. The right engine is retired (closed with the
// DB), so its on-node space is reclaimed only at Close.
func (db *DB) MergeShard(leftID int) error {
	if db.secondary {
		return ErrSecondary
	}
	db.rebalMu.Lock()
	defer db.rebalMu.Unlock()

	rt0 := db.routing.Load()
	idx := rt0.indexOf(leftID)
	if idx < 0 {
		return fmt.Errorf("%w: %d", ErrNoSuchShard, leftID)
	}
	if idx+1 >= len(rt0.entries) {
		return fmt.Errorf("%w: shard %d has no right neighbor", ErrNoSuchShard, leftID)
	}
	left, right := rt0.entries[idx], rt0.entries[idx+1]
	boundary, hi := rt0.boundaries[idx], rt0.hi(idx+1)

	if err := purgeRange(left.eng, boundary, hi); err != nil {
		return fmt.Errorf("shard: merge purge: %w", err)
	}
	s0 := right.eng.CurrentSeq()
	if err := copyRange(right.eng, left.eng, boundary, hi, s0, 0, false); err != nil {
		return fmt.Errorf("shard: merge bulk copy: %w", err)
	}

	gateEpoch := db.installGate(boundary, hi)
	db.drainBelow(gateEpoch)
	fence := right.eng.FenceNow()
	if err := copyRange(right.eng, left.eng, boundary, hi, fence, s0, true); err != nil {
		db.ungate()
		return fmt.Errorf("shard: merge delta copy: %w", err)
	}

	cur := db.routing.Load()
	boundaries := make([][]byte, 0, len(cur.boundaries)-1)
	boundaries = append(boundaries, cur.boundaries[:idx]...)
	boundaries = append(boundaries, cur.boundaries[idx+1:]...)
	entries := make([]entry, 0, len(cur.entries)-1)
	entries = append(entries, cur.entries[:idx+1]...)
	entries = append(entries, cur.entries[idx+2:]...)
	db.publish(&routeTable{epoch: cur.epoch + 1, boundaries: boundaries, entries: entries})
	db.retire(right)
	return nil
}

// MigrateShard moves the identified shard's data to the memory node at
// index srv, behind a fresh engine (and WAL slot) there. When source and
// destination both run the native transport with durability, the bulk of
// the move is engine.Migration's server→server extent cloning plus a WAL
// tail replay; otherwise the iterator copy path used by split does the
// work. Either way the fence makes the hand-off lossless.
func (db *DB) MigrateShard(id int, srv int) error {
	if db.secondary {
		return ErrSecondary
	}
	if srv < 0 || srv >= len(db.servers) {
		return fmt.Errorf("shard: no such server %d", srv)
	}
	db.rebalMu.Lock()
	defer db.rebalMu.Unlock()

	rt0 := db.routing.Load()
	idx := rt0.indexOf(id)
	if idx < 0 {
		return fmt.Errorf("%w: %d", ErrNoSuchShard, id)
	}
	src := rt0.entries[idx]
	if src.srv == srv {
		return nil
	}
	lo, hi := rt0.lo(idx), rt0.hi(idx)

	dst, err := db.openShard(srv, RolePrimary)
	if err != nil {
		return err
	}

	if m := engine.StartMigration(src.eng, dst.eng); m != nil {
		err = db.migrateClone(m, src, dst, lo, hi)
	} else {
		err = db.migrateCopy(src, dst, lo, hi)
	}
	if err != nil {
		db.abandonShard(dst)
		return err
	}

	cur := db.routing.Load()
	entries := append([]entry(nil), cur.entries...)
	entries[idx] = dst
	db.publish(&routeTable{epoch: cur.epoch + 1, boundaries: cur.boundaries, entries: entries})
	db.retire(src)
	return nil
}

// migrateClone is the extent-cloning fast path: phase A clones live
// tables with writers running; under the gate the fence is taken, the
// table set diff-cloned and installed on the destination, and the WAL
// tail above the flushed horizon replayed there.
func (db *DB) migrateClone(m *engine.Migration, src, dst entry, lo, hi []byte) error {
	if err := m.CloneLive(); err != nil {
		m.Abort()
		return fmt.Errorf("shard: migrate clone: %w", err)
	}
	gateEpoch := db.installGate(lo, hi)
	db.drainBelow(gateEpoch)
	fence := src.eng.FenceNow()
	tail, err := m.Finish(fence)
	if err != nil {
		db.ungate()
		m.Abort()
		return fmt.Errorf("shard: migrate finish: %w", err)
	}
	ds := dst.eng.NewSession()
	defer ds.Close()
	for _, e := range wal.FilterRange(tail, lo, hi) {
		if keys.Kind(e.Kind) == keys.KindDelete {
			err = ds.Delete(e.Key)
		} else {
			err = ds.Put(e.Key, e.Value)
		}
		if err != nil {
			db.ungate()
			m.Abort()
			return fmt.Errorf("shard: migrate tail replay: %w", err)
		}
	}
	m.Close()
	return nil
}

// migrateCopy is the iterator fallback (no WAL, or a non-native
// transport): the same bulk+delta shape split uses, over the full range.
func (db *DB) migrateCopy(src, dst entry, lo, hi []byte) error {
	s0 := src.eng.CurrentSeq()
	if err := copyRange(src.eng, dst.eng, lo, hi, s0, 0, false); err != nil {
		return fmt.Errorf("shard: migrate bulk copy: %w", err)
	}
	gateEpoch := db.installGate(lo, hi)
	db.drainBelow(gateEpoch)
	fence := src.eng.FenceNow()
	if err := copyRange(src.eng, dst.eng, lo, hi, fence, s0, true); err != nil {
		db.ungate()
		return fmt.Errorf("shard: migrate delta copy: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Balancer wiring

// balTarget adapts DB to balance.Target.
type balTarget struct{ db *DB }

func (t balTarget) Shards() []balance.Shard {
	rt := t.db.routing.Load()
	out := make([]balance.Shard, len(rt.entries))
	for i, e := range rt.entries {
		s := e.eng.Telemetry().Snapshot()
		out[i] = balance.Shard{
			ID:       e.id,
			Server:   e.srv,
			Ops:      s.Counters["engine.writes"] + s.Counters["engine.reads"],
			Stalls:   s.Counters["engine.stalls"],
			CanSplit: e.sampler.pivot(rt.lo(i), rt.hi(i)) != nil,
		}
	}
	return out
}

func (t balTarget) Servers() int            { return len(t.db.servers) }
func (t balTarget) Split(id int) error      { return t.db.SplitShard(id) }
func (t balTarget) Merge(leftID int) error  { return t.db.MergeShard(leftID) }
func (t balTarget) Migrate(id, s int) error { return t.db.MigrateShard(id, s) }

// startBalancer launches the balance loop with its own telemetry registry
// (merged into TelemetrySnapshot), honoring Options.BalanceInterval.
func (db *DB) startBalancer() {
	env := db.env
	db.balReg = telemetry.NewRegistry(telemetry.ClockFunc(func() int64 { return int64(env.Now()) }))
	db.bal = balance.New(env, balTarget{db}, balance.Config{Interval: db.baseOpts.BalanceInterval}, db.balReg)
}
