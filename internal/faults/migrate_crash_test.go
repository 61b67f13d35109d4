package faults

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"
	"time"

	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/shard"
	"dlsm/internal/sim"
)

// migOutcome reduces one mid-migration-crash run to comparable facts; two
// runs with the same seed must produce identical outcomes.
type migOutcome struct {
	acked     int
	digest    uint32
	migFailed bool
	endVirtNS int64
}

func migKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// runMigrationCrash drives a λ=2 primary across two memory nodes, starts a
// hot-range migration of shard 1 to the other server with writers running,
// and crashes the compute node while the migration is in flight — before
// the routing flip, so the original geometry still names every WAL slot
// that acknowledged a write. A second compute node then takes over the
// leases and recovers; every acknowledged write must be present.
func runMigrationCrash(t *testing.T, seed int64) migOutcome {
	t.Helper()
	env := sim.NewEnvSeed(seed)
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn1 := fab.AddNode("compute1", 8)
	cn2 := fab.AddNode("compute2", 8)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 128 << 20
	cfg.SelfRegionSize = 128 << 20
	var servers []*memnode.Server
	for i := 0; i < 2; i++ {
		mn := fab.AddNode(fmt.Sprintf("mem%d", i), 12)
		srv := memnode.NewServer(mn, cfg)
		srv.Start()
		servers = append(servers, srv)
	}
	inj := New(fab, 0)

	var out migOutcome
	env.Run(func() {
		defer fab.Close()
		const n = 4000
		opts := leaseOpts()
		bounds := shard.UniformBoundaries(2, n, migKey)
		place := shard.Placement{Servers: servers, Lambda: 2, Boundaries: bounds, Lease: true}
		db, err := shard.Open(cn1, shard.RolePrimary, place, opts)
		if err != nil {
			t.Errorf("leased primary: %v", err)
			return
		}

		// Preload both shards; every preload write is acknowledged.
		acked := map[string]string{}
		pre := db.NewSession()
		for i := 0; i < n; i++ {
			k, v := migKey(i), fmt.Sprintf("pre-%08d", i)
			if err := pre.Put(k, []byte(v)); err != nil {
				t.Errorf("preload Put: %v", err)
				return
			}
			acked[string(k)] = v
		}
		pre.Close()

		// Crash lands shortly after the migration starts — inside the
		// clone/tail window, before the routing flip.
		inj.CrashNode(cn1, env.Now()+sim.Time(500*time.Microsecond), 0)

		const writers = 3
		wacked := make([]map[string]string, writers)
		wg := sim.NewWaitGroup(env)
		for w := 0; w < writers; w++ {
			w := w
			wacked[w] = map[string]string{}
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				s := db.NewSession()
				defer s.Close()
				for j := 0; ; j++ {
					// Fresh unique keys spread over the whole keyspace (so
					// both the moving and the staying shard take writes);
					// never overwriting an earlier acked key keeps "acked ⇒
					// present with this exact value" assertable.
					i := (j * 2654435761) % n
					key := fmt.Sprintf("%s.w%d.%06d", migKey(i), w, j)
					val := fmt.Sprintf("w%d-v%06d", w, j)
					if err := s.Put([]byte(key), []byte(val)); err != nil {
						return
					}
					wacked[w][key] = val
				}
			})
		}

		migDone := false
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			err := db.MigrateShard(db.ShardID(1), 0)
			out.migFailed = err != nil
			migDone = true
		})
		wg.Wait()
		if !migDone {
			t.Error("migration goroutine never finished")
		}
		db.Close()

		for w := 0; w < writers; w++ {
			for k, v := range wacked[w] {
				acked[k] = v
			}
		}

		// Takeover from the second compute node with the original geometry
		// (the routing table is compute-local state; a pre-flip crash means
		// the original geometry still covers every acked write).
		place.ComputeIdx = 1
		db2, err := shard.Open(cn2, shard.RoleTakeover, place, opts)
		if err != nil {
			t.Errorf("Takeover: %v", err)
			return
		}
		defer db2.Close()

		keys := make([]string, 0, len(acked))
		for k := range acked {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out.acked = len(keys)
		s := db2.NewSession()
		defer s.Close()
		crc := crc32.NewIEEE()
		for _, k := range keys {
			got, err := s.Get([]byte(k))
			if err != nil {
				t.Errorf("acked key %q lost across migration crash: %v", k, err)
				continue
			}
			if !bytes.Equal(got, []byte(acked[k])) {
				t.Errorf("acked key %q = %q, want %q", k, got, acked[k])
				continue
			}
			fmt.Fprintf(crc, "%s=%s\n", k, got)
		}
		out.digest = crc.Sum32()
	})
	env.Wait()
	out.endVirtNS = int64(env.Now())
	return out
}

// TestMigrationCrashZeroLoss: the compute node dies mid-migration (after
// the clone started, before the routing flip); takeover from a second
// compute node recovers every acknowledged write, and the whole scenario
// is deterministic — two runs with the same seed are identical.
func TestMigrationCrashZeroLoss(t *testing.T) {
	a := runMigrationCrash(t, 17)
	if !a.migFailed {
		t.Fatal("migration completed before the crash; the scenario needs a mid-flight crash (retune the crash delay)")
	}
	if a.acked == 0 {
		t.Fatal("no writes acknowledged; scenario is vacuous")
	}
	t.Logf("acked=%d digest=%08x end=%v", a.acked, a.digest, time.Duration(a.endVirtNS))

	b := runMigrationCrash(t, 17)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
}
