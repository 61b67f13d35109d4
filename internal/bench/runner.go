package bench

import (
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/memnode"
	"dlsm/internal/repl"
	"dlsm/internal/service"
	"dlsm/internal/shard"
	"dlsm/internal/telemetry"
)

// Topology says which DBs a point opens on its c = Config.ComputeNodes
// compute nodes, and over which key slices.
type Topology int

const (
	// Single is one primary on compute node 0 over the whole key range.
	Single Topology = iota
	// Sliced is the paper's cluster (§IX): compute node i is the primary
	// of key slice i of c, its λ shards dealt round-robin over the memory
	// nodes (Fig 5), and its threads touch only its own slice.
	Sliced
	// Secondaries is multi-compute scale-out (internal/lease): compute
	// node 0 is the lease-holding primary and preloads the whole range;
	// every further compute node attaches as a read-only secondary serving
	// it from its own compute-local state.
	Secondaries
)

// Point is one data point: the deployment and system (Config), the DBs laid
// over its compute nodes (Topology), and what drives them — the thread loop
// running Workload or, when Tenants is set, a service.Tier running those
// tenants' clients against the (preloaded) primary.
type Point struct {
	Config
	Topology Topology
	Workload Workload
	Tenants  []service.TenantConfig
}

// Result is one measured data point. Every field is filled on every
// topology.
type Result struct {
	Threads int // measured-phase threads (tier-driven: clients), all nodes
	Ops     int64
	Elapsed time.Duration // virtual time
	// Throughput in operations/second of virtual time (entries/second for
	// scans).
	Throughput float64
	// P50 and P99 are over the thread loop's sampled per-op latencies; a
	// tier-driven point carries its per-tenant tails in Reports instead.
	P50, P99  time.Duration
	SpaceUsed int64 // remote memory held, all memory nodes
	// RemoteCPUUtil and ComputeCPUUtil are the first memory node's and the
	// first compute node's core utilization during the measured phase (Fig
	// 12's bar annotations, the -fig offload headline).
	RemoteCPUUtil, ComputeCPUUtil float64
	// Net traffic during the measured phase, summed over every compute
	// node <-> memory node link.
	NetToMem, NetFromMem int64
	// Metrics is the end-of-run telemetry snapshot: every DB's engine
	// registries and the service tier's merged with the fabric's per-link
	// registry. Cumulative over the whole run (preload included), unlike
	// the deltas above.
	Metrics telemetry.Snapshot
	// Reports are the per-tenant SLO reports of a tier-driven point.
	Reports []service.Report
}

// mirrorOnto turns replication on: quorum ack across the two copies, the
// second on the memory node held back for the backup role.
func mirrorOnto(o *engine.Options, replica *memnode.Server) {
	o.Replica, o.ReplAck = replica, repl.AckQuorum
}

// node is one opened DB of a point and the key slice its threads draw from
// (which, for a primary, is also the slice it preloads).
type node struct {
	db     kvDB
	lo, hi int
}

// Run measures one point: deploy, open the topology's DBs, preload and
// settle, warm up, reset the counters, drive, aggregate, close, snapshot.
// It is the only place any of those happen, for every topology and driver.
func Run(p Point) Result {
	cfg := p.Config.Normalize()
	c := cfg.ComputeNodes
	lambda, replicated := cfg.shards()
	opts := engineOptions(cfg, lambda)
	env, fab, cns, servers := deployment(cfg, opts)
	var res Result
	env.Run(func() {
		primaries := servers
		if replicated {
			primaries = servers[:len(servers)-1]
			mirrorOnto(&opts, servers[len(servers)-1])
		}
		nodes := make([]node, c)
		open := func(i int) {
			nd := node{lo: 0, hi: cfg.KeyRange}
			role, place := shard.RolePrimary, shard.Placement{Servers: primaries, Lambda: lambda}
			switch {
			case p.Topology == Sliced:
				nd.lo, nd.hi = cfg.KeyRange*i/c, cfg.KeyRange*(i+1)/c
				place.Servers = shard.ClusterServers(primaries, i, lambda)
			case p.Topology == Secondaries && i == 0:
				place.Lease = true
			case p.Topology == Secondaries:
				role, place.ComputeIdx = shard.RoleSecondary, i
			}
			nd.db = openDB(cfg, cns[i], role, place, nd.lo, nd.hi, opts)
			nodes[i] = nd
		}

		// Primaries open first and fill their own slices side by side. (The
		// tier always serves a loaded store.)
		writers := nodes
		if p.Topology == Secondaries {
			writers = nodes[:1]
		}
		for i := range writers {
			open(i)
		}
		loaded := p.Workload != FillRandom || p.Tenants != nil
		if loaded {
			spawn(env, len(writers), func(i int) {
				nd := writers[i]
				// The shuffle's seed salt is the recorded figures': the
				// slice origin on a sliced cluster, a constant otherwise.
				salt := int64(0x5ee0)
				if p.Topology == Sliced {
					salt = int64(nd.lo)
				}
				preload(env, cfg, nd.db, nd.lo, nd.hi, salt)
				nd.db.Settle()
			})
		}
		if p.Topology == Secondaries {
			// Publish the settled tree so secondaries see the full preload.
			if err := nodes[0].db.(lsmDB).PublishCheckpoint(); err != nil {
				panic(fmt.Sprintf("bench: publish checkpoint: %v", err))
			}
			for i := 1; i < c; i++ {
				open(i)
			}
		}

		perNode := max(1, cfg.Threads/c)
		if cfg.Warmup > 0 {
			// Random streams disjoint from the measured phase's.
			runThreads(env, cfg, p.Workload, nodes, perNode, cfg.Warmup/(c*perNode), 100003)
			if loaded {
				// Read-involving measurements settle after the warmup the
				// same way they settle after preload: a rebalance split
				// leaves its copied range as a stack of small L0 tables,
				// and reads should see the compacted steady state.
				for _, nd := range nodes {
					nd.db.Settle()
				}
			}
		}

		// The measured phase starts here, whatever ran before: utilization
		// windows restart and the link counters are read.
		mn, cn := servers[0].Node(), cns[0]
		mn.CPU.ResetStats()
		cn.CPU.ResetStats()
		wire := func() (toMem, fromMem int64) {
			for _, cn := range cns {
				for _, srv := range servers {
					to, _ := fab.LinkStats(cn, srv.Node())
					from, _ := fab.LinkStats(srv.Node(), cn)
					toMem, fromMem = toMem+to, fromMem+from
				}
			}
			return
		}
		toMem0, fromMem0 := wire()

		var tier *service.Tier
		if p.Tenants != nil {
			tier = service.New(env, nodes[0].db, service.Config{
				Seed: cfg.Seed, Key: keyOf, Value: valueOf, Tenants: p.Tenants})
		}
		var lat []time.Duration
		start := env.Now()
		if tier != nil {
			res.Reports = tier.Run()
			for _, r := range res.Reports {
				res.Threads += r.Clients
				res.Ops += r.Units
			}
		} else {
			res.Threads = c * perNode
			res.Ops, lat = runThreads(env, cfg, p.Workload, nodes, perNode, cfg.N/(c*perNode), 0)
		}
		res.Elapsed = time.Duration(env.Now() - start)

		if res.Elapsed > 0 {
			res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
		}
		if len(lat) > 0 {
			slices.Sort(lat)
			res.P50 = lat[len(lat)/2]
			res.P99 = lat[len(lat)*99/100]
		}
		// Every system allocates from the memory nodes' own allocators
		// (Sherman's leaves included), so each node is asked once however
		// many DBs and shards share it.
		for _, srv := range servers {
			res.SpaceUsed += srv.ComputeUsed() + srv.SelfUsed() + srv.FSUsed()
		}
		res.RemoteCPUUtil = mn.CPU.Utilization()
		res.ComputeCPUUtil = cn.CPU.Utilization()
		toMem1, fromMem1 := wire()
		res.NetToMem, res.NetFromMem = toMem1-toMem0, fromMem1-fromMem0

		// Secondaries close before the primary: they hold no leases, and
		// the primary's Close hands its leases back last.
		for i := len(nodes) - 1; i >= 0; i-- {
			nodes[i].db.Close()
		}
		// Snapshot after Close drained the background workers, so late
		// compactions (and any fault-driven retries/fallbacks they
		// performed) are part of the reported metrics.
		var snaps []telemetry.Snapshot
		for _, nd := range nodes {
			snaps = append(snaps, nd.db.TelemetrySnapshot())
		}
		if tier != nil {
			snaps = append(snaps, tier.TelemetrySnapshot())
		}
		res.Metrics = telemetry.Merge(append(snaps, fab.Telemetry().Snapshot())...)
		fab.Close()
	})
	env.Wait()
	// Figure sweeps run many deployments back-to-back; return each one's
	// registered regions to the OS promptly.
	debug.FreeOSMemory()
	return res
}
