// Multinode: dLSM scaled across 4 compute nodes and 4 memory nodes (§IX),
// mirroring the paper's CloudLab experiments (Fig 15). The key space splits
// into one contiguous slice per compute node; each slice splits into λ = 8
// shards whose LSM-trees round-robin across memory nodes. Drivers run on
// their own compute node, so single-shard accesses never cross nodes.
//
// A second act shows multi-compute scale-out on ONE shard group: compute
// node 0 opens it as the lease-holding primary, nodes 1 and 2 attach as
// read-only secondaries, and a primary write becomes visible on both
// secondaries after the checkpoint publish/refresh cycle.
package main

import (
	"fmt"
	"time"

	"dlsm"
	"dlsm/internal/shard"
	"dlsm/internal/sim"
)

const (
	computeNodes   = 4
	memoryNodes    = 4
	lambda         = 8
	keysPerCompute = 50_000
	threadsPerNode = 8
)

func main() {
	d := dlsm.NewDeployment(dlsm.CloudLabConfig(computeNodes, memoryNodes))
	defer d.Close()

	d.Run(func() {
		total := computeNodes * keysPerCompute
		format := func(i int) []byte { return []byte(fmt.Sprintf("key-%016d", i)) }

		// One DB per compute node over its own key slice; the c·λ shard
		// LSM-trees are dealt round-robin over the memory nodes.
		var cl []*dlsm.DB
		for node := 0; node < computeNodes; node++ {
			lo, hi := total*node/computeNodes, total*(node+1)/computeNodes
			var b [][]byte
			for j := 1; j < lambda; j++ {
				b = append(b, format(lo+(hi-lo)*j/lambda))
			}
			db, err := dlsm.OpenDB(d, dlsm.RolePrimary, dlsm.Placement{ComputeIdx: node,
				Servers: shard.ClusterServers(d.Servers, node, lambda), Lambda: lambda, Boundaries: b},
				dlsm.DefaultOptions())
			if err != nil {
				panic(err)
			}
			defer db.Close()
			cl = append(cl, db)
		}

		// Fill: every compute node's drivers write its own slice.
		start := d.Env.Now()
		wg := sim.NewWaitGroup(d.Env)
		for node := 0; node < computeNodes; node++ {
			node := node
			for t := 0; t < threadsPerNode; t++ {
				t := t
				wg.Add(1)
				d.Env.Go(func() {
					defer wg.Done()
					s := cl[node].NewSession()
					defer s.Close()
					lo := total * node / computeNodes
					for i := t; i < keysPerCompute; i += threadsPerNode {
						k := format(lo + i)
						if err := s.Put(k, []byte(fmt.Sprintf("v-%0400d", i))); err != nil {
							panic(err)
						}
					}
				})
			}
		}
		wg.Wait()
		elapsed := time.Duration(d.Env.Now() - start)
		fmt.Printf("%dC%dM fill: %d keys with %d threads in %v -> %.2fM ops/s\n",
			computeNodes, memoryNodes, total, computeNodes*threadsPerNode,
			elapsed, float64(total)/elapsed.Seconds()/1e6)

		// Verify a sample from each node.
		for node := 0; node < computeNodes; node++ {
			s := cl[node].NewSession()
			lo := total * node / computeNodes
			if _, err := s.Get(format(lo + keysPerCompute/2)); err != nil {
				panic(fmt.Sprintf("node %d lost a key: %v", node, err))
			}
			s.Close()
		}
		fmt.Println("all compute nodes serve their slices")

		scaleout(d)
	})
}

// scaleout runs the primary + read-only secondaries demo on one shard
// group: writes acknowledged by the primary are invisible to secondaries
// until a checkpoint publish + refresh, then visible on every one.
func scaleout(d *dlsm.Deployment) {
	opts := dlsm.DefaultOptions()
	opts.Durability = dlsm.DurabilitySync // secondaries ride the WAL checkpoint slot
	opts.WALSize = 8 << 20
	servers := d.Servers[:1]

	primary, err := dlsm.OpenDB(d, dlsm.RolePrimary,
		dlsm.Placement{Servers: servers, Lease: true}, opts)
	if err != nil {
		panic(err)
	}
	defer primary.Close()
	var secs []*dlsm.DB
	for _, node := range []int{1, 2} {
		sec, err := dlsm.OpenDB(d, dlsm.RoleSecondary,
			dlsm.Placement{ComputeIdx: node, Owner: 0, Servers: servers}, opts)
		if err != nil {
			panic(err)
		}
		defer sec.Close()
		secs = append(secs, sec)
	}

	ps := primary.NewSession()
	defer ps.Close()
	if err := ps.Put([]byte("scaleout-k"), []byte("scaleout-v")); err != nil {
		panic(err)
	}

	// Not yet published: each secondary's view predates the write.
	for i, sec := range secs {
		s := sec.NewSession()
		if _, err := s.Get([]byte("scaleout-k")); err == nil {
			panic(fmt.Sprintf("secondary %d saw an unpublished write", i+1))
		}
		s.Close()
	}

	// Flush moves the write into a remote SSTable; PublishCheckpoint makes
	// the next refresh observe it.
	primary.Flush()
	if err := primary.PublishCheckpoint(); err != nil {
		panic(err)
	}
	for i, sec := range secs {
		if err := sec.RefreshView(); err != nil {
			panic(err)
		}
		s := sec.NewSession()
		v, err := s.Get([]byte("scaleout-k"))
		if err != nil || string(v) != "scaleout-v" {
			panic(fmt.Sprintf("secondary %d after refresh: %q, %v", i+1, v, err))
		}
		s.Close()
	}
	fmt.Println("primary write visible on both read-only secondaries after checkpoint refresh")
}
