package dlsm

import (
	"fmt"
	"math/rand"
	"testing"

	"dlsm/internal/shard"
	"dlsm/internal/sim"
)

// mustOpenDB is OpenDB for placements that cannot fail to open.
func mustOpenDB(t *testing.T, d *Deployment, role Role, p Placement, opts Options) *DB {
	t.Helper()
	db, err := OpenDB(d, role, p, opts)
	if err != nil {
		t.Fatalf("OpenDB(%v): %v", role, err)
	}
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	d := NewDeployment(SingleNodeConfig())
	d.Run(func() {
		db := mustOpenDB(t, d, RolePrimary, Placement{}, DefaultOptions())
		defer db.Close()
		s := db.NewSession()
		defer s.Close()

		s.Put([]byte("hello"), []byte("world"))
		v, err := s.Get([]byte("hello"))
		if err != nil || string(v) != "world" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		s.Delete([]byte("hello"))
		if _, err := s.Get([]byte("hello")); err != ErrNotFound {
			t.Fatalf("after delete: %v", err)
		}
	})
	d.Close()
}

func TestShardedDBRoutesAndScans(t *testing.T) {
	const n, lambda = 4000, 8
	d := NewDeployment(SingleNodeConfig())
	d.Run(func() {
		format := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
		opts := DefaultOptions()
		opts.MemTableSize = 32 << 10
		opts.TableSize = 32 << 10
		opts.EntrySizeHint = 64
		db := mustOpenDB(t, d, RolePrimary, Placement{Lambda: lambda, Boundaries: UniformBoundaries(lambda, n, format)}, opts)
		defer db.Close()
		if db.Lambda() != lambda {
			t.Fatalf("Lambda = %d", db.Lambda())
		}

		s := db.NewSession()
		defer s.Close()
		perm := rand.New(rand.NewSource(1)).Perm(n)
		for _, i := range perm {
			s.Put(format(i), []byte(fmt.Sprintf("v%d", i)))
		}
		// Every shard should have received writes.
		for i := 0; i < lambda; i++ {
			if db.Shard(i).Stats().Writes.Load() == 0 {
				t.Fatalf("shard %d received no writes", i)
			}
		}
		for i := 0; i < n; i += 97 {
			v, err := s.Get(format(i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("Get(%d) = %q, %v", i, v, err)
			}
		}
		// Cross-shard scan in global key order.
		it := s.NewIterator()
		defer it.Close()
		count := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key()) != string(format(count)) {
				t.Fatalf("scan[%d] = %q", count, it.Key())
			}
			count++
		}
		if count != n {
			t.Fatalf("scanned %d, want %d", count, n)
		}
		// SeekGE across a shard boundary.
		it2 := s.NewIterator()
		defer it2.Close()
		it2.SeekGE(format(n / 2))
		if !it2.Valid() || string(it2.Key()) != string(format(n/2)) {
			t.Fatalf("SeekGE = %q", it2.Key())
		}
	})
	d.Close()
}

func TestClusterMultiComputeMultiMemory(t *testing.T) {
	const c, m, lambda, perNode = 2, 4, 2, 1500
	d := NewDeployment(CloudLabConfig(c, m))
	d.Run(func() {
		format := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
		total := c * perNode
		opts := DefaultOptions()
		opts.MemTableSize = 32 << 10
		opts.TableSize = 32 << 10
		opts.EntrySizeHint = 64
		// §IX: one DB per compute node over its own contiguous key slice,
		// the c·λ shards dealt round-robin over the memory nodes.
		var cl []*DB
		for node := 0; node < c; node++ {
			lo, hi := total*node/c, total*(node+1)/c
			var b [][]byte
			for j := 1; j < lambda; j++ {
				b = append(b, format(lo+(hi-lo)*j/lambda))
			}
			db := mustOpenDB(t, d, RolePrimary, Placement{ComputeIdx: node,
				Servers: shard.ClusterServers(d.Servers, node, lambda), Lambda: lambda, Boundaries: b}, opts)
			defer db.Close()
			cl = append(cl, db)
		}

		// One driver entity per compute node writes its own key slice.
		wg := sim.NewWaitGroup(d.Env)
		for node := 0; node < c; node++ {
			node := node
			wg.Add(1)
			d.Env.Go(func() {
				defer wg.Done()
				s := cl[node].NewSession()
				defer s.Close()
				lo := total * node / c
				for i := 0; i < perNode; i++ {
					k := format(lo + i)
					s.Put(k, k)
				}
				for i := 0; i < perNode; i += 23 {
					k := format(lo + i)
					v, err := s.Get(k)
					if err != nil || string(v) != string(k) {
						t.Errorf("node %d Get(%s) = %q, %v", node, k, v, err)
						return
					}
				}
			})
		}
		wg.Wait()
	})
	d.Close()
}
