package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dlsm/internal/engine"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

func opts() engine.Options {
	o := engine.DLSM()
	o.MemTableSize = 32 << 10
	o.TableSize = 32 << 10
	o.L1MaxBytes = 128 << 10
	o.EntrySizeHint = 64
	o.FlushWorkers = 1
	o.CompactionWorkers = 2
	return o
}

func harness(t *testing.T, lambda int, n int, fn func(env *sim.Env, db *DB)) {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 128 << 20
	cfg.SelfRegionSize = 128 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	env.Run(func() {
		bounds := UniformBoundaries(lambda, n, key)
		db, err := New(cn, []*memnode.Server{srv}, lambda, bounds, opts())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fn(env, db)
		db.Close()
		fab.Close()
	})
	env.Wait()
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestRoutingCoversBoundaries(t *testing.T) {
	const n, lambda = 1000, 4
	harness(t, lambda, n, func(env *sim.Env, db *DB) {
		// Boundary keys land in the shard to their right ([lo, hi)).
		for i, want := range map[int]int{0: 0, 249: 0, 250: 1, 499: 1, 500: 2, 750: 3, 999: 3} {
			if got := db.route(key(i)); got != want {
				t.Fatalf("route(%s) = %d, want %d", key(i), got, want)
			}
		}
	})
}

func TestWritesSpreadAcrossShards(t *testing.T) {
	const n, lambda = 2000, 8
	harness(t, lambda, n, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
			s.Put(key(i), key(i))
		}
		for i := 0; i < lambda; i++ {
			if got := db.Shard(i).Stats().Writes.Load(); got == 0 {
				t.Fatalf("shard %d got no writes", i)
			}
		}
		for i := 0; i < n; i += 19 {
			v, err := s.Get(key(i))
			if err != nil || string(v) != string(key(i)) {
				t.Fatalf("Get(%s) = %q, %v", key(i), v, err)
			}
		}
	})
}

func TestCrossShardIteratorGlobalOrder(t *testing.T) {
	const n, lambda = 1500, 4
	harness(t, lambda, n, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
			s.Put(key(i), key(i))
		}
		it := s.NewIterator()
		defer it.Close()
		count := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key()) != string(key(count)) {
				t.Fatalf("scan[%d] = %q, want %q", count, it.Key(), key(count))
			}
			count++
		}
		if count != n {
			t.Fatalf("scanned %d, want %d", count, n)
		}
	})
}

func TestIteratorSeekAcrossShardBoundary(t *testing.T) {
	const n, lambda = 1000, 4
	harness(t, lambda, n, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < n; i++ {
			s.Put(key(i), key(i))
		}
		it := s.NewIterator()
		defer it.Close()
		// Seek exactly to a boundary (key 250 starts shard 1) and just
		// before it.
		it.SeekGE(key(250))
		if !it.Valid() || string(it.Key()) != string(key(250)) {
			t.Fatalf("SeekGE(boundary) = %q", it.Key())
		}
		it.SeekGE(key(249))
		if !it.Valid() || string(it.Key()) != string(key(249)) {
			t.Fatalf("SeekGE(249) = %q", it.Key())
		}
		// Crossing from shard 0 into shard 1 mid-iteration.
		it.SeekGE(key(248))
		for i := 248; i <= 252; i++ {
			if !it.Valid() || string(it.Key()) != string(key(i)) {
				t.Fatalf("cross-boundary scan at %d = %q", i, it.Key())
			}
			it.Next()
		}
	})
}

func TestDeleteThroughShards(t *testing.T) {
	harness(t, 4, 1000, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		s.Put(key(600), []byte("v"))
		s.Delete(key(600))
		if _, err := s.Get(key(600)); err != engine.ErrNotFound {
			t.Fatalf("deleted key: %v", err)
		}
	})
}

func TestLambdaOnePassthrough(t *testing.T) {
	harness(t, 1, 100, func(env *sim.Env, db *DB) {
		if db.Lambda() != 1 {
			t.Fatalf("Lambda = %d", db.Lambda())
		}
		s := db.NewSession()
		defer s.Close()
		s.Put([]byte("zzz-beyond-range"), []byte("v")) // no boundaries: all keys route to shard 0
		if v, err := s.Get([]byte("zzz-beyond-range")); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	})
}

func TestBadBoundariesError(t *testing.T) {
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	srv := memnode.NewServer(mn, memnode.DefaultConfig())
	srv.Start()
	env.Run(func() {
		defer fab.Close()
		if _, err := New(cn, []*memnode.Server{srv}, 3, [][]byte{[]byte("b"), []byte("a")}, opts()); !errors.Is(err, ErrBadBoundaries) {
			t.Errorf("descending boundaries: err = %v, want ErrBadBoundaries", err)
		}
		if _, err := New(cn, []*memnode.Server{srv}, 3, [][]byte{[]byte("a")}, opts()); !errors.Is(err, ErrBadBoundaries) {
			t.Errorf("wrong boundary count: err = %v, want ErrBadBoundaries", err)
		}
	})
	env.Wait()
}

// TestSpaceUsedCountsEachServerOnce: every term of an engine's SpaceUsed
// is a whole-server number, so four shards sharing one memory node must
// report its footprint once, not four times.
func TestSpaceUsedCountsEachServerOnce(t *testing.T) {
	const n, lambda = 4000, 4
	harness(t, lambda, n, func(env *sim.Env, db *DB) {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), key(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		db.Flush()
		db.WaitForCompactions()
		srv := db.servers[0]
		want := srv.ComputeUsed() + srv.SelfUsed() + srv.FSUsed()
		if want == 0 {
			t.Fatal("nothing reached the memory node")
		}
		if got := db.SpaceUsed(); got != want {
			t.Fatalf("SpaceUsed = %d, the server holds %d (%.1fx)", got, want, float64(got)/float64(want))
		}
	})
}

// TestClusterServersRoundRobin: compute node i's shard j lands on memory
// node (i·λ+j) mod m whatever the ratio of λ to m, because shard j of a DB
// uses Servers[j mod len].
func TestClusterServersRoundRobin(t *testing.T) {
	for _, g := range []struct{ c, m, lambda int }{{4, 4, 8}, {2, 4, 2}, {3, 5, 1}, {2, 1, 4}} {
		servers := make([]*memnode.Server, g.m)
		for i := range servers {
			servers[i] = new(memnode.Server)
		}
		for i := 0; i < g.c; i++ {
			got := ClusterServers(servers, i, g.lambda)
			for j := 0; j < g.lambda; j++ {
				if got[j%len(got)] != servers[(i*g.lambda+j)%g.m] {
					t.Fatalf("c=%d m=%d λ=%d: compute %d shard %d misplaced", g.c, g.m, g.lambda, i, j)
				}
			}
		}
	}
}
