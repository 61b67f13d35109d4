package bench

import (
	"math/rand"
	"runtime/debug"
	"time"

	"dlsm/internal/shard"
	"dlsm/internal/sim"
)

// ClusterResult aggregates a multi-compute run (Fig 14/15).
type ClusterResult struct {
	System       System
	ComputeNodes int
	MemoryNodes  int
	Threads      int // total across compute nodes
	Ops          int64
	Elapsed      time.Duration
	Throughput   float64
}

// runCluster measures a c-compute x m-memory run: the key space slices per
// compute node (shards round-robin over memory nodes, §IX), drivers run
// against their own compute node only.
func runCluster(cfg Config, kind opKind, preload bool) ClusterResult {
	cfg = cfg.Normalize()
	c := max(1, cfg.ComputeNodes)
	env, fab, cns, servers := deployment(cfg)
	var res ClusterResult
	env.Run(func() {
		lambda := lambdaFor(cfg.System, cfg)
		dbs := make([]kvDB, c)
		for i := 0; i < c; i++ {
			lo, hi := cfg.KeyRange*i/c, cfg.KeyRange*(i+1)/c
			// Compute i's shards start on a different memory node
			// (round-robin placement, Fig 5).
			dbs[i] = openSystemRange(cfg.System, cfg, cns[i], shard.ClusterServers(servers, i, lambda), lo, hi)
		}

		if preload {
			wg := sim.NewWaitGroup(env)
			for i := 0; i < c; i++ {
				i := i
				wg.Add(1)
				env.Go(func() {
					defer wg.Done()
					lo, hi := cfg.KeyRange*i/c, cfg.KeyRange*(i+1)/c
					preloadRange(env, cfg, dbs[i], lo, hi)
					dbs[i].Settle()
				})
			}
			wg.Wait()
		}

		perNodeThreads := max(1, cfg.Threads/c)
		perOps := cfg.N / (c * perNodeThreads)
		start := env.Now()
		wg := sim.NewWaitGroup(env)
		var outs = make([]int64, c*perNodeThreads)
		for i := 0; i < c; i++ {
			for t := 0; t < perNodeThreads; t++ {
				i, t := i, t
				wg.Add(1)
				env.Go(func() {
					defer wg.Done()
					s := dbs[i].NewSession()
					defer s.Close()
					rnd := cfg.threadRand(i*64 + t)
					lo, hi := cfg.KeyRange*i/c, cfg.KeyRange*(i+1)/c
					var lat []time.Duration
					outs[i*perNodeThreads+t] = opLoopRange(env, cfg, kind, s, rnd, perOps, lo, hi, &lat)
				})
			}
		}
		wg.Wait()
		elapsed := time.Duration(env.Now() - start)

		res = ClusterResult{
			System:       cfg.System,
			ComputeNodes: c,
			MemoryNodes:  len(servers),
			Threads:      c * perNodeThreads,
			Elapsed:      elapsed,
		}
		for _, o := range outs {
			res.Ops += o
		}
		if elapsed > 0 {
			res.Throughput = float64(res.Ops) / elapsed.Seconds()
		}
		for _, db := range dbs {
			db.Close()
		}
		fab.Close()
	})
	env.Wait()
	debug.FreeOSMemory()
	return res
}

// preloadRange inserts keys [lo, hi) once each with 16 loaders.
func preloadRange(env *sim.Env, cfg Config, db kvDB, lo, hi int) {
	const loaders = 16
	perm := rand.New(rand.NewSource(cfg.Seed ^ int64(lo))).Perm(hi - lo)
	wg := sim.NewWaitGroup(env)
	for t := 0; t < loaders; t++ {
		t := t
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := t; i < len(perm); i += loaders {
				k := lo + perm[i]
				s.Put(cfg.Key(k), cfg.Value(k))
			}
		})
	}
	wg.Wait()
}

// opLoopRange is opLoop restricted to keys in [lo, hi).
func opLoopRange(env *sim.Env, cfg Config, kind opKind, s kvSession, rnd *rand.Rand, per, lo, hi int, lat *[]time.Duration) int64 {
	var ops int64
	span := hi - lo
	for i := 0; i < per; i++ {
		k := lo + rnd.Intn(span)
		read := kind == opRead || (kind == opMixed && rnd.Float64() < cfg.ReadRatio)
		if read {
			s.Get(cfg.Key(k))
		} else {
			s.Put(cfg.Key(k), cfg.Value(k))
		}
		ops++
	}
	return ops
}
