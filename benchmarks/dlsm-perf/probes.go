package main

import (
	"math/rand"
	"time"

	"dlsm"
	"dlsm/internal/bloom"
	"dlsm/internal/cache"
	"dlsm/internal/keys"
	"dlsm/internal/memtable"
	"dlsm/internal/rpc"
	"dlsm/internal/shard"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

// Layer probes: the harness calls one layer's exported functions directly
// and times them, on a deployment of their own, after the workload has
// shut down. They do not depend on the workload; every traced run repeats
// them so that each run's per-layer table is complete.

// probeIters is the iteration count of a probe at -scale >= 0.1; smaller
// scales (the smoke test) shrink it so they stay fast.
func probeIters(scale float64) int {
	n := 100_000
	if scale < 0.1 {
		n = int(float64(n) * scale * 10)
	}
	return max(n, 1000)
}

// hostNS times fn over n iterations and returns host ns per iteration.
func hostNS(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

var probeSink int // keeps probe results alive so the calls are not elided

func runProbes(p *metricSet, scale float64) {
	n := probeIters(scale)
	probeMemtable(p, n)
	probeBloom(p, n)
	probeIndex(p, n)
	probeCache(p, n)
	probeSim(p, n)
	probeFabric(p, n)
}

func probeMemtable(p *metricSet, n int) {
	mt := memtable.New(1, 0, keys.Seq(n)+2)
	v := makeValue(0)
	ks := make([][]byte, n)
	for i, idx := range rand.New(rand.NewSource(1)).Perm(n) {
		ks[i] = makeKey(idx)
	}
	p.set("memtable.add_host_ns", hostNS(n, func(i int) {
		mt.Add(keys.Seq(i+1), keys.KindSet, ks[i], v)
	}), int64(n))
	p.set("memtable.get_host_ns", hostNS(n, func(i int) {
		if _, found, _ := mt.Get(ks[n-1-i], keys.Seq(n)+1); found {
			probeSink++
		}
	}), int64(n))
}

func probeBloom(p *metricSet, n int) {
	const members = 100_000
	in := make([][]byte, members)
	for i := range in {
		in[i] = makeKey(i)
	}
	f := bloom.Build(in, dlsm.DefaultOptions().BitsPerKey)
	absent := make([][]byte, members)
	for i := range absent {
		absent[i] = makeKey(members + i)
	}
	fp := 0
	for _, k := range absent {
		if f.MayContain(k) {
			fp++
		}
	}
	p.set("bloom.fp_rate", float64(fp)/members, members)
	p.set("bloom.probe_host_ns", hostNS(n, func(i int) {
		if f.MayContain(absent[i%members]) {
			probeSink++
		}
	}), int64(n))
}

// probeIndex builds a byte-addressable index the way the table writer
// does: one record per entry, keyed by the internal key.
func probeIndex(p *metricSet, n int) {
	const records = 10_000
	ib := sstable.NewIndexBuilder(sstable.ByteAddr)
	iks := make([][]byte, records)
	for i := range iks {
		iks[i] = keys.Append(nil, makeKey(i), keys.Seq(i+1), keys.KindSet)
		ib.Add(iks[i], uint32(i*entrySize), uint32(len(iks[i])), valSize)
	}
	ix := ib.Finish()
	p.set("sstable.index_bytes_per_key", float64(ix.RawLen())/float64(ix.NumRecords()), records)
	order := rand.New(rand.NewSource(2)).Perm(records)
	p.set("sstable.index_seek_host_ns", hostNS(n, func(i int) {
		probeSink += ix.SeekGE(iks[order[i%records]], keys.Compare)
	}), int64(n))
}

func probeCache(p *metricSet, n int) {
	const entries = 20_000 // 20k x (400 B + slot) fits the 16 MiB budget: every probe hits
	c := cache.New(cache.Config{Budget: 16 << 20})
	v := makeValue(0)
	for i := 0; i < entries; i++ {
		c.FillValue(1, uint32(i), v)
	}
	order := rand.New(rand.NewSource(3)).Perm(entries)
	p.set("cache.get_host_ns", hostNS(n, func(i int) {
		if _, ok := c.GetValue(1, uint32(order[i%entries])); ok {
			probeSink++
		}
	}), int64(n))
}

// probeSim times the simulation kernel's primitives in a world of its own.
func probeSim(p *metricSet, n int) {
	env := sim.NewEnv()
	env.Run(func() {
		// handoff: two entities ping-pong over unbuffered channels; one
		// iteration is a round trip, i.e. two entity switches.
		ping, pong := sim.NewChan[int](env, 0), sim.NewChan[int](env, 0)
		env.Go(func() {
			for {
				v, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(v)
			}
		})
		p.set("sim.handoff_host_ns", hostNS(n, func(i int) {
			ping.Send(i)
			pong.Recv()
		})/2, int64(n))
		ping.Close()

		// sleep: 16 entities each sleep 1 us per iteration while 1 000
		// others sit in the wait heap with far-off deadlines.
		const sleepers, parked = 16, 1000
		done := sim.NewWaitGroup(env)
		for i := 0; i < parked; i++ {
			done.Add(1)
			env.Go(func() {
				defer done.Done()
				env.Sleep(time.Hour)
			})
		}
		per := max(n/sleepers, 1)
		wg := sim.NewWaitGroup(env)
		t0 := time.Now()
		for i := 0; i < sleepers; i++ {
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					env.Sleep(time.Microsecond)
				}
			})
		}
		wg.Wait()
		p.set("sim.sleep_host_ns", float64(time.Since(t0).Nanoseconds())/float64(per*sleepers), int64(per*sleepers))
		done.Wait() // nothing else is runnable: the clock jumps the hour

		mu := sim.NewMutex(env)
		p.set("sim.mutex_host_ns", hostNS(n, func(int) {
			mu.Lock()
			mu.Unlock()
		}), int64(n))

		cpu := sim.NewCPU(env, 4)
		p.set("sim.cpu_use_host_ns", hostNS(n, func(int) {
			cpu.Use(100 * time.Nanosecond)
		}), int64(n))
	})
	env.Wait()
}

// probeFabric times the verbs, the RPC layer and the shard router on a
// fresh single-node deployment with nothing else running.
func probeFabric(p *metricSet, n int) {
	dc := dlsm.SingleNodeConfig()
	// The probes move no table data; small regions spare this process a
	// second 2 GiB allocation (which, recycling the workload's address
	// space, the runtime would zero in full).
	dc.MemNode.ComputeRegionSize, dc.MemNode.SelfRegionSize = 64<<20, 64<<20
	d := newDeployment(dc)
	d.Run(func() {
		env := d.Env
		cn, mn := d.Compute[0], d.Servers[0].Node()
		remote := d.Servers[0].DataMR().Addr(0)
		local := cn.Register(2 << 20)
		qp := cn.NewQP(mn)

		v0 := env.Now()
		host := hostNS(n, func(int) {
			if err := qp.ReadSync(local, 0, remote, entrySize); err != nil {
				panic(err) // a healthy fabric with no fault plane cannot fail a read
			}
		})
		p.set("rdma.read_420B_virtual_ns", float64(env.Now()-v0)/float64(n), int64(n))
		p.set("rdma.read_420B_host_ns", host, int64(n))

		big := max(n/1000, 10)
		v0 = env.Now()
		for i := 0; i < big; i++ {
			if err := qp.ReadSync(local, 0, remote, 2<<20); err != nil {
				panic(err)
			}
		}
		p.set("rdma.read_2MiB_virtual_ns", float64(env.Now()-v0)/float64(big), int64(big))
		qp.Close()
		cn.Deregister(local)

		// rpc: an echo handler on a node of its own (the memory node's
		// endpoint belongs to its own server).
		echoNode := d.Fabric.AddNode("probe-echo", 4)
		srv := rpc.NewServer(echoNode, sim.DefaultCosts(), 2)
		srv.Handle("echo", func(_ int, args []byte) ([]byte, error) { return args, nil })
		srv.Start()
		cl := rpc.NewClient(cn, echoNode, nil, 0)
		calls := max(n/4, 250) // a call is ~10 entity switches; keep the probe under a second
		v0 = env.Now()
		host = hostNS(calls, func(int) {
			if _, err := cl.Call("echo", nil); err != nil {
				panic(err)
			}
		})
		p.set("rpc.null_call_virtual_ns", float64(env.Now()-v0)/float64(calls), int64(calls))
		p.set("rpc.null_call_host_ns", host, int64(calls))
		cl.Close()
		srv.Stop()

		// shard router: Route on a 4-shard table, no engine traffic.
		const lambda, keyspace = 4, 400_000
		sdb, err := shard.New(cn, d.Servers, lambda, shard.UniformBoundaries(lambda, keyspace, makeKey), dlsm.DefaultOptions())
		if err != nil {
			panic(err)
		}
		ks := make([][]byte, 1024)
		rnd := rand.New(rand.NewSource(4))
		for i := range ks {
			ks[i] = makeKey(rnd.Intn(keyspace))
		}
		p.set("shard.route_host_ns", hostNS(n*10, func(i int) {
			probeSink += sdb.Route(ks[i%len(ks)])
		}), int64(n*10))
		sdb.Close()
	})
	d.Close()
}
