package engine

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"dlsm/internal/faults"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// offloadOpts is smallOpts with compactions pushed out of the way so L0
// tables survive long enough to be byte-compared.
func offloadOpts() Options {
	o := smallOpts()
	o.L0CompactTrigger = 1000
	o.L0StopTrigger = 0
	return o
}

// tableSig captures everything observable about one SSTable: the meta
// geometry and the raw extent bytes (data, index, filter), copied out of
// the memory node's region. Placement (offsets, rkeys, extent class) is
// deliberately excluded: offloaded tables land in the self-controlled
// region, compute-built ones in the compute-controlled region, and the
// paper's claim is that the *contents* are identical, not the addresses.
type tableSig struct {
	size      int64
	indexLen  int
	filterLen int
	count     int
	smallest  string
	largest   string
	maxSeq    uint64
	data      []byte
	index     []byte
	filter    []byte
}

// buildTables fills n keys through a fresh DB with the given options,
// flushes, and returns the signature of every L0 table in level order.
func buildTables(t *testing.T, opts Options, n int) []tableSig {
	t.Helper()
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	var sigs []tableSig
	env.Run(func() {
		db := mustOpen(cn, srv, opts)
		s := db.NewSession()
		perm := rand.New(rand.NewSource(99)).Perm(n)
		for _, i := range perm {
			s.Put(key(i), value(i))
		}
		db.Flush()
		db.WaitForCompactions()
		if opts.OffloadFlush {
			if got := db.Stats().OffloadedFlushes.Load(); got == 0 {
				t.Error("offload.flushes = 0 with OffloadFlush on")
			}
			if got := db.Stats().OffloadFallbacks.Load(); got != 0 {
				t.Errorf("offload.fallback = %d on a healthy fabric, want 0", got)
			}
		}
		// Everything must still read back, whichever node built the tables.
		for i := 0; i < n; i += 17 {
			v, err := s.Get(key(i))
			if err != nil || !bytes.Equal(v, value(i)) {
				t.Fatalf("Get(%s) = %q, %v", key(i), v, err)
			}
		}
		for _, m := range db.vs.Current().Levels[0] {
			total := int(m.Size) + m.IndexLen + m.FilterLen
			raw := append([]byte(nil), srv.DataMR().Bytes(m.Data.Off, total)...)
			sigs = append(sigs, tableSig{
				size:      m.Size,
				indexLen:  m.IndexLen,
				filterLen: m.FilterLen,
				count:     m.Count,
				smallest:  string(m.Smallest),
				largest:   string(m.Largest),
				maxSeq:    m.MaxSeq,
				data:      raw[:m.Size],
				index:     raw[m.Size : int(m.Size)+m.IndexLen],
				filter:    raw[int(m.Size)+m.IndexLen:],
			})
		}
		s.Close()
		db.Close()
		fab.Close()
	})
	env.Wait()
	return sigs
}

// compareTables diffs two table sets field by field; name labels the
// offloaded variant in failures.
func compareTables(t *testing.T, name string, want, got []tableSig) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d L0 tables, baseline has %d", name, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.size != w.size || g.indexLen != w.indexLen || g.filterLen != w.filterLen ||
			g.count != w.count || g.maxSeq != w.maxSeq ||
			g.smallest != w.smallest || g.largest != w.largest {
			t.Errorf("%s: table %d geometry diverged:\n  want {size %d idx %d flt %d count %d seq %d}\n  got  {size %d idx %d flt %d count %d seq %d}",
				name, i, w.size, w.indexLen, w.filterLen, w.count, w.maxSeq,
				g.size, g.indexLen, g.filterLen, g.count, g.maxSeq)
			continue
		}
		if !bytes.Equal(g.data, w.data) {
			t.Errorf("%s: table %d data bytes diverged", name, i)
		}
		if !bytes.Equal(g.index, w.index) {
			t.Errorf("%s: table %d index bytes diverged", name, i)
		}
		if !bytes.Equal(g.filter, w.filter) {
			t.Errorf("%s: table %d filter bytes diverged", name, i)
		}
	}
}

// TestOffloadFlushByteIdentity is the core acceptance check: a memnode-built
// SSTable is byte-identical to the compute-built one for the same input,
// across every per-layer ablation combination (which exercises both the
// contiguous-prefix footer placement and compute-side footer completion).
func TestOffloadFlushByteIdentity(t *testing.T) {
	const n = 3000
	baseline := buildTables(t, offloadOpts(), n)
	if len(baseline) == 0 {
		t.Fatal("baseline produced no L0 tables; test exercises nothing")
	}
	for _, v := range []struct {
		name     string
		idx, flt bool
	}{
		{"index+filter", true, true},
		{"index-only", true, false},
		{"filter-only", false, true},
		{"data-only", false, false},
	} {
		opts := offloadOpts()
		opts.OffloadFlush = true
		opts.OffloadIndexBuild = v.idx
		opts.OffloadFilter = v.flt
		compareTables(t, v.name, baseline, buildTables(t, opts, n))
	}
}

// TestOffloadFlushWALReplay checks the zero-copy path: with the WAL on, the
// flush_build RPC ships a (ring, seq-range) descriptor and the memory node
// replays its own log ring instead of receiving the memtable contents — and
// the result is still byte-identical to a compute-built flush.
func TestOffloadFlushWALReplay(t *testing.T) {
	const n = 3000
	base := offloadOpts()
	base.Durability = DurabilitySync
	baseline := buildTables(t, base, n)

	opts := base
	opts.OffloadFlush = true
	opts.OffloadIndexBuild = true
	opts.OffloadFilter = true

	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	var sigs []tableSig
	var replays, inline int64
	env.Run(func() {
		db := mustOpen(cn, srv, opts)
		s := db.NewSession()
		perm := rand.New(rand.NewSource(99)).Perm(n)
		for _, i := range perm {
			s.Put(key(i), value(i))
		}
		db.Flush()
		db.WaitForCompactions()
		replays = db.Stats().OffloadReplays.Load()
		inline = db.Stats().OffloadInline.Load()
		if got := db.Stats().OffloadFallbacks.Load(); got != 0 {
			t.Errorf("offload.fallback = %d on a healthy fabric, want 0", got)
		}
		for i := 0; i < n; i += 17 {
			v, err := s.Get(key(i))
			if err != nil || !bytes.Equal(v, value(i)) {
				t.Fatalf("Get(%s) = %q, %v", key(i), v, err)
			}
		}
		for _, m := range db.vs.Current().Levels[0] {
			total := int(m.Size) + m.IndexLen + m.FilterLen
			raw := append([]byte(nil), srv.DataMR().Bytes(m.Data.Off, total)...)
			sigs = append(sigs, tableSig{
				size: m.Size, indexLen: m.IndexLen, filterLen: m.FilterLen,
				count: m.Count, smallest: string(m.Smallest), largest: string(m.Largest),
				maxSeq: m.MaxSeq,
				data:   raw[:m.Size],
				index:  raw[m.Size : int(m.Size)+m.IndexLen],
				filter: raw[int(m.Size)+m.IndexLen:],
			})
		}
		s.Close()
		db.Close()
		fab.Close()
	})
	env.Wait()

	if replays == 0 {
		t.Errorf("offload.replay = 0: WAL-fed flushes never used ring replay (inline = %d)", inline)
	}
	compareTables(t, "wal-replay", baseline, sigs)
}

// offloadFaultOpts is faultOpts plus full offloading: the flush_build RPC
// rides CompactRPC, so the shrunken policy makes retry exhaustion fast.
func offloadFaultOpts() Options {
	o := faultOpts()
	o.OffloadFlush = true
	o.OffloadIndexBuild = true
	o.OffloadFilter = true
	return o
}

type offloadOutageResult struct {
	end       sim.Time
	fallbacks int64
	offloaded int64
	injected  int64
}

// runOffloadOutage mirrors runServiceOutage with the offloaded flush path:
// the memnode RPC service dies under in-flight flush_build calls, retries
// exhaust, and every flush falls back to the compute-local builder with
// zero acknowledged writes lost.
func runOffloadOutage(t *testing.T, seed int64) offloadOutageResult {
	t.Helper()
	env := sim.NewEnvSeed(seed)
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()

	inj := faults.New(fab, 0)
	inj.AddRule(faults.Rule{Name: "wobble-write", Op: rdma.OpWrite, From: faults.Any, To: faults.Any,
		Prob: 0.05, Delay: 10 * time.Microsecond})
	inj.AddRule(faults.Rule{Name: "wobble-send", Op: rdma.OpSend, From: faults.Any, To: faults.Any,
		Prob: 0.3, Delay: 20 * time.Microsecond})

	const n = 6000
	var res offloadOutageResult
	env.Run(func() {
		db := mustOpen(cn, srv, offloadFaultOpts())
		s := db.NewSession()
		for i := 0; i < n/2; i++ {
			s.Put(key(i), value(i))
		}
		// Kill the RPC service with flushes (and their flush_build calls)
		// in flight, then force the rest of the workload through it.
		srv.StopService()
		for i := n / 2; i < n; i++ {
			s.Put(key(i), value(i))
		}
		db.Flush()
		db.WaitForCompactions() // exhausts retries, builds locally
		srv.RestartService()

		for i := 0; i < n; i++ {
			v, err := s.Get(key(i))
			if err != nil {
				t.Fatalf("Get(%s) after outage: %v", key(i), err)
			}
			if !bytes.Equal(v, value(i)) {
				t.Fatalf("Get(%s) has wrong value after outage", key(i))
			}
		}
		it := s.NewIterator()
		count := 0
		for it.First(); it.Valid(); it.Next() {
			count++
		}
		if err := it.Error(); err != nil {
			t.Fatalf("iterator after outage: %v", err)
		}
		it.Close()
		if count != n {
			t.Fatalf("iterator saw %d keys, want %d (lost or duplicated)", count, n)
		}
		res.fallbacks = db.Stats().OffloadFallbacks.Load()
		res.offloaded = db.Stats().OffloadedFlushes.Load()
		s.Close()
		db.Close()
		fab.Close()
	})
	env.Wait()
	res.end = env.Now()
	res.injected = fab.Telemetry().Counter("faults.injected").Load()
	return res
}

func TestOffloadFallsBackDuringServiceOutage(t *testing.T) {
	r := runOffloadOutage(t, 7)
	if r.fallbacks == 0 {
		t.Error("offload.fallback = 0, want > 0 (outage never hit a flush)")
	}
	if r.offloaded == 0 {
		t.Error("offload.flushes = 0, want > 0 (no flush offloaded before the outage)")
	}
	if r.injected == 0 {
		t.Error("faults.injected = 0, want > 0")
	}
}

func TestOffloadOutageDeterministic(t *testing.T) {
	r1 := runOffloadOutage(t, 42)
	r2 := runOffloadOutage(t, 42)
	if r1 != r2 {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", r1, r2)
	}
}

// computeBusy runs a WAL-backed fill and returns the compute node's busy
// core-time. With all three layers offloaded the serialization, index and
// filter work runs on the memory node's cores, so compute busy time must
// drop relative to the local build.
func computeBusy(t *testing.T, offload bool) sim.Duration {
	t.Helper()
	opts := offloadOpts()
	opts.Durability = DurabilitySync
	if offload {
		opts.OffloadFlush = true
		opts.OffloadIndexBuild = true
		opts.OffloadFilter = true
	}
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	var busy sim.Duration
	env.Run(func() {
		db := mustOpen(cn, srv, opts)
		s := db.NewSession()
		start := env.Now()
		cn.CPU.ResetStats()
		perm := rand.New(rand.NewSource(7)).Perm(4000)
		for _, i := range perm {
			s.Put(key(i), value(i))
		}
		db.Flush()
		db.WaitForCompactions()
		window := env.Now() - start
		busy = sim.Duration(cn.CPU.Utilization() * float64(window) * float64(cn.CPU.Cores()))
		s.Close()
		db.Close()
		fab.Close()
	})
	env.Wait()
	return busy
}

// TestOffloadReducesComputeCPU asserts the headline win: offloading all
// three layers strictly reduces compute-node CPU time for the same fill.
func TestOffloadReducesComputeCPU(t *testing.T) {
	local := computeBusy(t, false)
	off := computeBusy(t, true)
	if off >= local {
		t.Errorf("compute busy time with offload = %v, without = %v; want a strict reduction", off, local)
	}
	t.Logf("compute busy: local %v, offloaded %v (%.1f%% saved)",
		local, off, 100*(1-float64(off)/float64(local)))
}
