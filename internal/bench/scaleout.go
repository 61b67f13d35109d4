package bench

import (
	"fmt"
	"runtime/debug"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/shard"
	"dlsm/internal/sim"
)

// ScaleoutPoint measures multi-compute scale-out (internal/lease): compute
// node 0 opens the shard group as the lease-holding primary and preloads
// it; every further compute node attaches as a read-only secondary serving
// from its own compute-local state. The measured phase is read-only —
// 95% point Gets, 5% ScanLen-entry range scans per thread — so aggregate
// throughput is bounded by compute-side CPU and QPs, which is exactly what
// adding compute nodes multiplies (the memory-node count stays fixed).
func ScaleoutPoint(n, computes, threadsPerNode int) Result {
	cfg := Config{System: DLSM, Threads: threadsPerNode, N: n,
		ComputeNodes: computes, Durability: engine.DurabilityAsync}.Normalize()
	env, fab, cns, servers := deployment(cfg)
	var res Result
	env.Run(func() {
		lambda := lambdaFor(DLSM, cfg)
		if len(servers) > lambda {
			lambda = len(servers)
		}
		var bounds [][]byte
		for j := 1; j < lambda; j++ {
			bounds = append(bounds, cfg.Key(cfg.KeyRange*j/lambda))
		}
		opts := engineOptions(DLSM, cfg, lambda, nil)

		place := shard.Placement{Servers: servers, Lambda: lambda, Boundaries: bounds, Lease: true}
		primary, err := shard.Open(cns[0], shard.RolePrimary, place, opts)
		if err != nil {
			panic(fmt.Sprintf("bench: scaleout primary: %v", err))
		}
		pdb := &lsmDB{db: primary, servers: uniqueServers(servers)}
		doPreload(env, cfg, pdb)
		pdb.Settle()
		// Publish the settled tree so secondaries see the full preload.
		if err := primary.PublishCheckpoint(); err != nil {
			panic(fmt.Sprintf("bench: scaleout publish: %v", err))
		}

		dbs := []kvDB{pdb}
		for i := 1; i < computes; i++ {
			place.ComputeIdx, place.Lease = i, false
			sec, err := shard.Open(cns[i], shard.RoleSecondary, place, opts)
			if err != nil {
				panic(fmt.Sprintf("bench: scaleout secondary %d: %v", i, err))
			}
			if err := sec.RefreshView(); err != nil {
				panic(fmt.Sprintf("bench: scaleout refresh %d: %v", i, err))
			}
			dbs = append(dbs, &lsmDB{db: sec, servers: nil})
		}

		per := cfg.N / (computes * threadsPerNode)
		outs := make([]int64, computes*threadsPerNode)
		start := env.Now()
		wg := sim.NewWaitGroup(env)
		for i := 0; i < computes; i++ {
			for t := 0; t < threadsPerNode; t++ {
				i, t := i, t
				wg.Add(1)
				env.Go(func() {
					defer wg.Done()
					s := dbs[i].NewSession()
					defer s.Close()
					rnd := cfg.threadRand(i*64 + t)
					var ops int64
					for j := 0; j < per; j++ {
						if rnd.Float64() < 0.05 {
							cnt := 0
							s.Scan(cfg.Key(rnd.Intn(cfg.KeyRange)), func(k, v []byte) bool {
								cnt++
								return cnt < cfg.ScanLen
							})
							ops += int64(cnt)
						} else {
							s.Get(cfg.Key(rnd.Intn(cfg.KeyRange)))
							ops++
						}
					}
					outs[i*threadsPerNode+t] = ops
				})
			}
		}
		wg.Wait()
		elapsed := time.Duration(env.Now() - start)

		res.System = DLSM
		res.Threads = computes * threadsPerNode
		res.Elapsed = elapsed
		for _, o := range outs {
			res.Ops += o
		}
		if elapsed > 0 {
			res.Throughput = float64(res.Ops) / elapsed.Seconds()
		}
		res.SpaceUsed = pdb.SpaceUsed()
		res.RemoteCPUUtil = servers[0].Node().CPU.Utilization()

		// Secondaries close before the primary: they hold no leases, and
		// the primary's Close hands its leases back last.
		for i := len(dbs) - 1; i >= 0; i-- {
			dbs[i].Close()
		}
		res.Metrics = fab.Telemetry().Snapshot()
		fab.Close()
	})
	env.Wait()
	debug.FreeOSMemory()
	return res
}

// FigScaleout sweeps aggregate read throughput against the compute-node
// count at a fixed memory-node count: 1 node is the classic single-writer
// deployment; 2 and 4 add read-only secondaries under the lease ownership
// layer. One-sided reads make the workload compute-bound, so aggregate
// throughput must rise with every added compute node.
func FigScaleout(n, threadsPerNode int) *Figure {
	f := &Figure{Name: "Fig Scaleout", Title: "aggregate read throughput vs compute nodes (1 primary + read-only secondaries)", XLabel: "compute nodes"}
	s := Series{Label: "dLSM"}
	for _, c := range []int{1, 2, 4} {
		r := ScaleoutPoint(n, c, threadsPerNode)
		progress("figscaleout c=%d: %s ops/s (%d threads, remote CPU %.0f%%)",
			c, fmtTput(r.Throughput), r.Threads, 100*r.RemoteCPUUtil)
		s.Points = append(s.Points, Point{X: fmt.Sprintf("%d", c), R: r})
	}
	f.Series = append(f.Series, s)
	return f
}
