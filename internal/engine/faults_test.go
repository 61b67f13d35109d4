package engine

import (
	"testing"
	"time"

	"dlsm/internal/faults"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
)

// faultOpts shrinks the retry policies so outages resolve in simulated
// milliseconds instead of seconds.
func faultOpts() Options {
	o := smallOpts()
	o.CompactRPC = rpc.Policy{
		Timeout:     500 * time.Microsecond,
		MaxAttempts: 3,
		Backoff:     100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Jitter:      0.2,
	}
	o.FreeRPC = rpc.Policy{
		Timeout:     200 * time.Microsecond,
		MaxAttempts: 2,
		Backoff:     50 * time.Microsecond,
	}
	return o
}

type outageResult struct {
	end       sim.Time
	fallbacks int64
	retries   int64
	injected  int64
}

// runServiceOutage writes a compaction-heavy workload, kills the memnode
// RPC service while compactions are in flight (the node itself — and so
// the one-sided data path — stays up), and verifies every key survives
// via the retry → local-compaction fallback.
func runServiceOutage(t *testing.T, seed int64) outageResult {
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
	// A latency wobble on the data and message paths: exercises the
	// injector without corrupting anything (never Drop on engine paths).
	inj.AddRule(faults.Rule{Name: "wobble-write", Op: rdma.OpWrite, From: faults.Any, To: faults.Any,
		Prob: 0.05, Delay: 10 * time.Microsecond})
	inj.AddRule(faults.Rule{Name: "wobble-send", Op: rdma.OpSend, From: faults.Any, To: faults.Any,
		Prob: 0.3, Delay: 20 * time.Microsecond})

	const n = 6000
	var res outageResult
	env.Run(func() {
		db := mustOpen(cn, srv, faultOpts())
		s := db.NewSession()
		for i := 0; i < n; i++ {
			s.Put(key(i), value(i))
		}
		// Flushes from the loop above have already queued compactions; some
		// are mid-CallLarge right now. Kill the RPC service under them.
		srv.StopService()
		db.Flush()
		db.WaitForCompactions() // exhausts retries, falls back locally
		srv.RestartService()

		for i := 0; i < n; i++ {
			v, err := s.Get(key(i))
			if err != nil {
				t.Fatalf("Get(%s) after outage: %v", key(i), err)
			}
			if string(v) != string(value(i)) {
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
		res.fallbacks = db.Stats().CompactionFallbacks.Load()
		s.Close()
		db.Close()
		fab.Close()
	})
	env.Wait()
	res.end = env.Now()
	res.retries = fab.Telemetry().Counter("rpc.retries").Load()
	res.injected = fab.Telemetry().Counter("faults.injected").Load()
	return res
}

func TestCompactionFallsBackDuringServiceOutage(t *testing.T) {
	r := runServiceOutage(t, 7)
	if r.fallbacks == 0 {
		t.Error("compaction.fallback = 0, want > 0")
	}
	if r.retries == 0 {
		t.Error("rpc.retries = 0, want > 0")
	}
	if r.injected == 0 {
		t.Error("faults.injected = 0, want > 0")
	}
}

func TestServiceOutageScenarioDeterministic(t *testing.T) {
	r1 := runServiceOutage(t, 42)
	r2 := runServiceOutage(t, 42)
	if r1 != r2 {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", r1, r2)
	}
}

func TestLinkFlapDuringFlushDrainsPipeline(t *testing.T) {
	env := sim.NewEnvSeed(11)
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	cfg := memnode.DefaultConfig()
	cfg.ComputeRegionSize = 256 << 20
	cfg.SelfRegionSize = 256 << 20
	srv := memnode.NewServer(mn, cfg)
	srv.Start()
	inj := faults.New(fab, 0)

	const n = 4000
	env.Run(func() {
		db := mustOpen(cn, srv, faultOpts())
		s := db.NewSession()
		for i := 0; i < n; i++ {
			s.Put(key(i), value(i)) // memtable-only: no fabric traffic yet
		}
		// Flap the compute<->memory link exactly while the flush pipeline
		// runs: 200us down / 200us up for 4ms, starting (down) right now.
		start := env.Now()
		window := sim.Time(4 * time.Millisecond)
		inj.FlapLink(cn.ID, mn.ID, 200*time.Microsecond, 200*time.Microsecond, start, start+window)
		db.Flush()
		env.WaitUntil(start + window) // let the flap window expire
		db.WaitForCompactions()

		if got := db.Stats().FlushErrors.Load(); got == 0 {
			t.Error("flush.errors = 0, want > 0 (flush never hit a down phase)")
		}
		if g := db.Telemetry().Snapshot().Gauges["flush.buffers_inflight"]; g != 0 {
			t.Errorf("flush.buffers_inflight = %d after flush, want 0 (leaked buffers)", g)
		}
		for i := 0; i < n; i++ {
			v, err := s.Get(key(i))
			if err != nil || string(v) != string(value(i)) {
				t.Fatalf("Get(%s) after flap: %q, %v", key(i), v, err)
			}
		}
		s.Close()
		db.Close()
		fab.Close()
	})
	env.Wait()
}
