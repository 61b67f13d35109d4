package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// harness2 is harness with two memory nodes (migration targets).
func harness2(t *testing.T, lambda int, n int, o engine.Options, fn func(env *sim.Env, db *DB)) {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 128 << 20
	cfg.SelfRegionSize = 128 << 20
	var servers []*memnode.Server
	for i := 0; i < 2; i++ {
		mn := fab.AddNode(fmt.Sprintf("memory%d", i), 12)
		srv := memnode.NewServer(mn, cfg)
		srv.Start()
		servers = append(servers, srv)
	}
	env.Run(func() {
		bounds := UniformBoundaries(lambda, n, key)
		// A non-zero compute identity: the log slots of shards born from
		// later splits and migrations must derive from it too.
		db, err := Open(cn, RolePrimary, Placement{ComputeIdx: 3, Servers: servers, Lambda: lambda, Boundaries: bounds}, o)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		fn(env, db)
		db.Close()
		fab.Close()
	})
	env.Wait()
}

func checkAll(t *testing.T, s *Session, n int, deleted map[int]bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, err := s.Get(key(i))
		if deleted[i] {
			if err != engine.ErrNotFound {
				t.Fatalf("Get(%s) after delete = %q, %v; want ErrNotFound", key(i), v, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(v, key(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), v, err)
		}
	}
}

func TestSplitOnline(t *testing.T) {
	const n = 1200
	harness2(t, 1, n, opts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), key(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := db.SplitShardAt(0, key(n/2)); err != nil {
			t.Fatalf("SplitShardAt: %v", err)
		}
		if db.Lambda() != 2 {
			t.Fatalf("Lambda = %d, want 2", db.Lambda())
		}
		if got := db.Boundaries(); len(got) != 1 || !bytes.Equal(got[0], key(n/2)) {
			t.Fatalf("Boundaries = %q", got)
		}
		// Writes after the split land in the right shards and reads see
		// both halves.
		for i := 0; i < n; i += 7 {
			if err := s.Put(key(i), key(i)); err != nil {
				t.Fatalf("post-split Put: %v", err)
			}
		}
		checkAll(t, s, n, nil)
		// A second split of the new right shard.
		rt := db.routing.Load()
		if err := db.SplitShardAt(rt.entries[1].id, key(3*n/4)); err != nil {
			t.Fatalf("second split: %v", err)
		}
		if db.Lambda() != 3 {
			t.Fatalf("Lambda = %d, want 3", db.Lambda())
		}
		checkAll(t, s, n, nil)

		// Cross-shard scan still yields global key order.
		it := s.NewIterator()
		defer it.Close()
		count := 0
		for it.First(); it.Valid(); it.Next() {
			if !bytes.Equal(it.Key(), key(count)) {
				t.Fatalf("scan[%d] = %q", count, it.Key())
			}
			count++
		}
		if count != n {
			t.Fatalf("scanned %d, want %d", count, n)
		}
	})
}

func TestSplitWithConcurrentWriters(t *testing.T) {
	const n = 2000
	harness2(t, 1, n, opts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < n; i++ {
			s.Put(key(i), []byte("v0"))
		}
		// A writer entity hammers the half that is about to move while the
		// split runs; every acked write must be visible afterwards.
		done := make(chan struct{})
		acked := map[int][]byte{}
		env.Go(func() {
			ws := db.NewSession()
			defer ws.Close()
			r := rand.New(rand.NewSource(7))
			for j := 0; j < 800; j++ {
				i := n/2 + r.Intn(n/2)
				v := []byte(fmt.Sprintf("v%d", j))
				if err := ws.Put(key(i), v); err != nil {
					t.Errorf("writer Put: %v", err)
					break
				}
				acked[i] = v
			}
			close(done)
		})
		env.Sleep(100_000) // let the writer get going mid-stream
		if err := db.SplitShardAt(0, key(n/2)); err != nil {
			t.Fatalf("SplitShardAt: %v", err)
		}
		<-done
		for i, want := range acked {
			v, err := s.Get(key(i))
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("acked write lost: Get(%s) = %q, %v; want %q", key(i), v, err, want)
			}
		}
	})
}

func TestMergeRestoresGeometryAndDeletes(t *testing.T) {
	const n = 800
	harness2(t, 1, n, opts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < n; i++ {
			s.Put(key(i), key(i))
		}
		if err := db.SplitShardAt(0, key(n/2)); err != nil {
			t.Fatalf("split: %v", err)
		}
		// Delete keys in the right shard after the split: the source
		// engine still holds them as garbage below its clamp. A merge that
		// failed to purge would resurrect them.
		deleted := map[int]bool{}
		for i := n / 2; i < n; i += 13 {
			if err := s.Delete(key(i)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			deleted[i] = true
		}
		if err := db.MergeShard(0); err != nil {
			t.Fatalf("merge: %v", err)
		}
		if db.Lambda() != 1 || len(db.Boundaries()) != 0 {
			t.Fatalf("Lambda = %d, Boundaries = %d after merge", db.Lambda(), len(db.Boundaries()))
		}
		checkAll(t, s, n, deleted)
		// The merged shard accepts writes over the whole range again.
		if err := s.Put(key(n-1), []byte("after-merge")); err != nil {
			t.Fatalf("post-merge Put: %v", err)
		}
		if v, _ := s.Get(key(n - 1)); !bytes.Equal(v, []byte("after-merge")) {
			t.Fatalf("post-merge Get = %q", v)
		}
	})
}

func TestMigrateIteratorPath(t *testing.T) {
	const n = 600
	harness2(t, 2, n, opts(), func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < n; i++ {
			s.Put(key(i), key(i))
		}
		// λ=2 over 2 servers round-robins shard 1 onto server 1; move it
		// to server 0. No WAL → iterator fallback path.
		if err := db.MigrateShard(1, 0); err != nil {
			t.Fatalf("MigrateShard: %v", err)
		}
		rt := db.routing.Load()
		if rt.entries[1].srv != 0 {
			t.Fatalf("shard at position 1 on server %d, want 0", rt.entries[1].srv)
		}
		checkAll(t, s, n, nil)
		for i := n / 2; i < n; i += 11 {
			if err := s.Put(key(i), []byte("moved")); err != nil {
				t.Fatalf("post-migrate Put: %v", err)
			}
			if v, _ := s.Get(key(i)); !bytes.Equal(v, []byte("moved")) {
				t.Fatalf("post-migrate Get = %q", v)
			}
		}
	})
}

func TestMigrateClonePath(t *testing.T) {
	const n = 600
	o := opts()
	o.Durability = engine.DurabilitySync
	harness2(t, 2, n, o, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), key(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		db.Shard(1).Flush() // some flushed tables for the extent-clone phase
		for i := n / 2; i < n; i += 3 {
			if err := s.Put(key(i), []byte("tail")); err != nil { // and a WAL tail
				t.Fatalf("Put: %v", err)
			}
		}
		src := db.Shard(1)
		if err := db.MigrateShard(1, 0); err != nil {
			t.Fatalf("MigrateShard: %v", err)
		}
		if db.Shard(1) == src {
			t.Fatal("routing still points at the source engine")
		}
		for i := 0; i < n; i++ {
			want := key(i)
			if i >= n/2 && (i-n/2)%3 == 0 {
				want = []byte("tail")
			}
			v, err := s.Get(key(i))
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("Get(%s) = %q, %v; want %q", key(i), v, err, want)
			}
		}
	})
}

func TestAutoBalanceSplitsHotShard(t *testing.T) {
	const n = 4000
	o := opts()
	o.AutoBalance = true
	o.BalanceInterval = time.Millisecond // the workload spans ~tens of virtual ms
	harness2(t, 1, n, o, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		r := rand.New(rand.NewSource(11))
		// A hot band: most traffic hits 10% of the keyspace.
		written := map[int]bool{}
		for j := 0; j < 20000; j++ {
			var i int
			if r.Intn(10) != 0 {
				i = n/2 + r.Intn(n/10)
			} else {
				i = r.Intn(n)
			}
			if err := s.Put(key(i), key(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			written[i] = true
		}
		snap := db.TelemetrySnapshot()
		if snap.Counters["balance.splits"] == 0 {
			t.Fatalf("auto-balance never split: %v", snap.Counters)
		}
		if db.Lambda() < 2 {
			t.Fatalf("Lambda = %d after hot workload", db.Lambda())
		}
		// Per-shard keyed series appear once λ > 1.
		found := false
		for name := range snap.Counters {
			if len(name) > 5 && name[:5] == "shard" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no per-shard keyed counters in snapshot")
		}
		for i := range written {
			if v, err := s.Get(key(i)); err != nil || !bytes.Equal(v, key(i)) {
				t.Fatalf("Get(%s) = %q, %v", key(i), v, err)
			}
		}
	})
}

// FuzzRouteKey pins the routing algebra the online split relies on:
// routing a key then splitting the table routes the key to the same data
// as splitting first and routing after. Pure routing-table computation —
// no engines, no simulation.
func FuzzRouteKey(f *testing.F) {
	f.Add([]byte("key-5"), []byte("key-7"))
	f.Add([]byte(""), []byte("m"))
	f.Add([]byte("zz"), []byte("c"))
	f.Fuzz(func(t *testing.T, k, pivot []byte) {
		boundaries := [][]byte{[]byte("c"), []byte("m"), []byte("t")}
		rt := &routeTable{boundaries: boundaries, entries: make([]entry, 4)}
		for i := range rt.entries {
			rt.entries[i].id = i
		}
		before := rt.route(k)
		j := rt.route(pivot)
		lo, hi := rt.lo(j), rt.hi(j)
		if lo != nil && bytes.Compare(pivot, lo) <= 0 {
			t.Skip() // pivot not strictly inside its shard: split rejects it
		}
		if hi != nil && bytes.Compare(pivot, hi) >= 0 {
			t.Skip()
		}
		nb := make([][]byte, 0, len(boundaries)+1)
		nb = append(nb, boundaries[:j]...)
		nb = append(nb, pivot)
		nb = append(nb, boundaries[j:]...)
		nrt := &routeTable{boundaries: nb, entries: make([]entry, 5)}
		after := nrt.route(k)

		want := before
		if before > j || (before == j && bytes.Compare(k, pivot) >= 0) {
			want = before + 1
		}
		if after != want {
			t.Fatalf("route(%q): before=%d, after split at %q = %d, want %d",
				k, before, pivot, after, want)
		}
	})
}
