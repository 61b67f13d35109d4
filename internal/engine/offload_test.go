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
		nearData := db.flushesNearData()
		db.Flush()
		db.WaitForCompactions()
		if got, flushes := db.Stats().OffloadedFlushes.Load(), db.Stats().Flushes.Load(); nearData && got != flushes || !nearData && got != 0 {
			t.Errorf("offload.flushes = %d of %d flushes with near-data flushing %v", got, flushes, nearData)
		}
		if got := db.Stats().OffloadFallbacks.Load(); got != 0 {
			t.Errorf("offload.fallback = %d on a healthy fabric, want 0", got)
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
// for every FlushAblation value (which exercises both the footer placed on
// the memory node and compute-side footer completion).
func TestOffloadFlushByteIdentity(t *testing.T) {
	const n = 3000
	base := offloadOpts()
	base.Durability = DurabilitySync
	base.FlushAblation = FlushOnCompute
	baseline := buildTables(t, base, n)
	if len(baseline) == 0 {
		t.Fatal("baseline produced no L0 tables; test exercises nothing")
	}
	for _, v := range []struct {
		name string
		a    FlushAblation
	}{
		{"data+index+filter", FlushNearData},
		{"data+index", FlushDataAndIndex},
		{"data-only", FlushDataOnly},
	} {
		opts := base
		opts.FlushAblation = v.a
		compareTables(t, v.name, baseline, buildTables(t, opts, n))
	}
}

// TestOffloadFlushWALReplay: a DB with a log builds its tables on the
// memory node without being asked to, and its flush moves the order, not
// the MemTable: under 3% of the MemTable's bytes cross compute->memory
// around Flush (the compute-built flush of the same MemTable moves all of
// them).
func TestOffloadFlushWALReplay(t *testing.T) {
	const n = 2000
	flushBytes := func(a FlushAblation) (moved, table int64) {
		opts := offloadOpts()
		opts.Durability = DurabilitySync
		opts.FlushAblation = a
		opts.MemTableSize, opts.TableSize = 4<<20, 4<<20 // one MemTable: nothing flushes before Flush
		opts.EntrySizeHint = 420
		harness(t, opts, func(env *sim.Env, db *DB) {
			s := db.NewSession()
			defer s.Close()
			val := bytes.Repeat([]byte("v"), 400)
			for _, i := range rand.New(rand.NewSource(99)).Perm(n) {
				s.Put(key(i), val)
			}
			fab := db.cn.Fabric()
			before, _ := fab.LinkStats(db.cn, db.mn)
			db.Flush()
			after, _ := fab.LinkStats(db.cn, db.mn)
			moved, table = after-before, db.Stats().BytesFlushed.Load()
			if got := db.Stats().OffloadedFlushes.Load(); (got == 1) != (a == FlushNearData) {
				t.Errorf("ablation %d: offload.flushes = %d", a, got)
			}
			for i := 0; i < n; i += 17 {
				if v, err := s.Get(key(i)); err != nil || !bytes.Equal(v, val) {
					t.Fatalf("Get(%s) = %d bytes, %v", key(i), len(v), err)
				}
			}
		})
		return moved, table
	}
	moved, table := flushBytes(FlushNearData)
	if table == 0 || moved*100 >= 3*table {
		t.Errorf("near-data flush moved %d bytes compute->memory for a %d-byte table, want < 3%%", moved, table)
	}
	if moved, table := flushBytes(FlushOnCompute); moved < table {
		t.Errorf("compute-side flush moved %d bytes for a %d-byte table: the comparison measures nothing", moved, table)
	}
	t.Logf("near-data flush: %d of %d table bytes on the wire (%.2f%%)", moved, table, 100*float64(moved)/float64(table))
}

// TestFlushWithoutLogStaysOnCompute: a DB without a log has nothing on the
// memory node to build from, and one off the native transport nobody to
// ask; whatever FlushAblation says, they flush compute-side and issue no
// flush_build.
func TestFlushWithoutLogStaysOnCompute(t *testing.T) {
	for _, a := range []FlushAblation{FlushNearData, FlushDataOnly, -1} {
		opts := smallOpts()
		if opts.FlushAblation = a; a < 0 {
			// A log, but the FS transport: no flush_build service to ask.
			opts.FlushAblation, opts.Durability, opts.Transport = FlushNearData, DurabilitySync, TransportFS
		}
		harness(t, opts, func(env *sim.Env, db *DB) {
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < 2000; i++ {
				s.Put(key(i), value(i))
			}
			db.Flush()
			st := db.Stats()
			if st.Flushes.Load() == 0 || st.OffloadedFlushes.Load() != 0 || st.OffloadFallbacks.Load() != 0 {
				t.Errorf("ablation %d: %d flushes, offload.flushes = %d, offload.fallback = %d; want compute-side flushes only",
					a, st.Flushes.Load(), st.OffloadedFlushes.Load(), st.OffloadFallbacks.Load())
			}
		})
	}
}

// offloadFaultOpts is faultOpts with a log, so flushes build near data: the
// flush_build RPC rides CompactRPC, so the shrunken policy makes retry
// exhaustion fast.
func offloadFaultOpts() Options {
	o := faultOpts()
	o.Durability = DurabilitySync
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
// core-time. With all three layers near data the serialization, index and
// filter work runs on the memory node's cores, so compute busy time must
// drop relative to the local build.
func computeBusy(t *testing.T, a FlushAblation) sim.Duration {
	t.Helper()
	opts := offloadOpts()
	opts.Durability = DurabilitySync
	opts.FlushAblation = a
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

// TestOffloadReducesComputeCPU asserts the headline win: building all
// three layers near data strictly reduces compute-node CPU time for the
// same fill, the MemTable walk that reads the order out included.
func TestOffloadReducesComputeCPU(t *testing.T) {
	local := computeBusy(t, FlushOnCompute)
	off := computeBusy(t, FlushNearData)
	if off >= local {
		t.Errorf("compute busy time with offload = %v, without = %v; want a strict reduction", off, local)
	}
	t.Logf("compute busy: local %v, offloaded %v (%.1f%% saved)",
		local, off, 100*(1-float64(off)/float64(local)))
}
