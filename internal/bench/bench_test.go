package bench

import (
	"fmt"
	"testing"
	"time"
)

// Small-N smoke configurations: these validate the harness mechanics and
// the qualitative orderings, not absolute numbers.
const smokeN = 30_000

// measure runs cfg on the single-primary topology under the thread loop.
func measure(cfg Config, w Workload) Result { return Run(Point{Config: cfg, Workload: w}) }

// figure returns the table entry with the given id.
func figure(t *testing.T, id string) *Fig {
	t.Helper()
	for i := range Figures {
		if Figures[i].ID == id {
			return &Figures[i]
		}
	}
	t.Fatalf("no figure %q in the table", id)
	return nil
}

func TestFillRandomDLSM(t *testing.T) {
	r := measure(Config{System: DLSM, Threads: 8, N: smokeN}, FillRandom)
	if r.Ops < smokeN*9/10 {
		t.Fatalf("ops = %d, want ~%d", r.Ops, smokeN)
	}
	if r.Throughput <= 0 || r.Elapsed <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	t.Logf("dLSM fill: %.0f ops/s, p50=%v p99=%v space=%dMB",
		r.Throughput, r.P50, r.P99, r.SpaceUsed>>20)
}

func TestReadRandomAfterSettle(t *testing.T) {
	r := measure(Config{System: DLSM, Threads: 8, N: smokeN, KeyRange: smokeN}, ReadRandom)
	if r.Ops < smokeN*9/10 {
		t.Fatalf("ops = %d", r.Ops)
	}
	t.Logf("dLSM read: %.0f ops/s p50=%v", r.Throughput, r.P50)
}

func TestEverySystemFillsAndReads(t *testing.T) {
	for _, sys := range AllSystems {
		cfg := Config{System: sys, Threads: 4, N: 8_000, KeyRange: 8_000}
		w := measure(cfg, FillRandom)
		if w.Ops == 0 || w.Throughput <= 0 {
			t.Fatalf("%v fill degenerate: %+v", sys, w)
		}
		r := measure(cfg, ReadRandom)
		if r.Ops == 0 || r.Throughput <= 0 {
			t.Fatalf("%v read degenerate: %+v", sys, r)
		}
		t.Logf("%-22s fill=%9.0f ops/s  read=%9.0f ops/s", sys, w.Throughput, r.Throughput)
	}
}

func TestMixedWorkload(t *testing.T) {
	r := measure(Config{System: DLSM, Threads: 8, N: smokeN, KeyRange: smokeN, ReadRatio: 0.5, Lambda: 8}, Mixed)
	if r.Ops < smokeN*9/10 {
		t.Fatalf("ops = %d", r.Ops)
	}
	t.Logf("dLSM-8 mixed 50%%: %.0f ops/s", r.Throughput)
}

func TestReadSeqScansEverything(t *testing.T) {
	r := measure(Config{System: DLSM, Threads: 2, N: 10_000, KeyRange: 10_000}, ReadSeq)
	if r.Ops != 2*10_000 {
		t.Fatalf("scan visited %d entries, want %d", r.Ops, 2*10_000)
	}
	t.Logf("dLSM readseq: %.0f entries/s", r.Throughput)
}

func TestClusterRun(t *testing.T) {
	cfg := Config{System: DLSM, Threads: 8, N: 16_000, KeyRange: 16_000,
		ComputeNodes: 2, MemoryNodes: 2, Lambda: 2}
	w := Run(Point{Config: cfg, Topology: Sliced})
	if w.Ops < 15_000 {
		t.Fatalf("cluster ops = %d", w.Ops)
	}
	if w.Threads != 8 {
		t.Fatalf("cluster threads = %d, want 8 (4 on each compute node)", w.Threads)
	}
	t.Logf("2C2M fill: %.0f ops/s", w.Throughput)

	// A cluster point is measured like any other: latencies, wire bytes,
	// space and the merged engine + fabric snapshot, not throughput alone.
	r := Run(Point{Config: cfg, Topology: Sliced, Workload: ReadRandom})
	if r.P50 <= 0 || r.NetFromMem <= 0 || r.SpaceUsed <= 0 {
		t.Errorf("cluster read: p50=%v netFromMem=%d space=%d, want all > 0", r.P50, r.NetFromMem, r.SpaceUsed)
	}
	if r.Metrics.Counters["engine.read.table_fetches"] == 0 || len(r.Metrics.Histograms) == 0 {
		t.Errorf("cluster read: no engine telemetry in Metrics (%d counters, %d histograms)",
			len(r.Metrics.Counters), len(r.Metrics.Histograms))
	}
}

// TestSlicedShermanSpreadsOverMemoryNodes: Fig 15's Sherman row is xCxM —
// compute node i's tree lives on memory node i mod m, not all of them on
// memory node 0 (whose region is sized for a 1/m share of the data).
func TestSlicedShermanSpreadsOverMemoryNodes(t *testing.T) {
	r := Run(Point{Config: Config{System: Sherman, Threads: 4, N: 8_000, ComputeNodes: 2, MemoryNodes: 2}, Topology: Sliced})
	sent := func(c, m int) int64 {
		return r.Metrics.Counters[fmt.Sprintf("rdma.link.compute-%d->memory-%d.bytes", c, m)]
	}
	for i := 0; i < 2; i++ {
		if own, other := sent(i, i), sent(i, 1-i); own < 4_000*valSize || other >= own/100 {
			t.Errorf("compute-%d wrote %d bytes to memory-%d and %d to memory-%d, want its whole slice on its own node",
				i, own, i, other, 1-i)
		}
	}
}

// TestScaleoutReportsMeasuredPhaseOnly: the counters are reset in one
// place for every topology, so a scale-out point's CPU is the read-only
// measured phase's — one-sided reads spend no memory-node CPU (§VI) — and
// not the preload's compaction CPU (28% / 39% / 47% at 1 / 2 / 4 compute
// nodes before the reset covered this topology).
func TestScaleoutReportsMeasuredPhaseOnly(t *testing.T) {
	f := figure(t, "scaleout")
	series := f.Grid(10_000, nil)
	series[0].Cells = series[0].Cells[1:2] // 2 compute nodes: one primary, one secondary
	f.Measure(series, nil)
	r := series[0].Cells[0].R[0]
	if r.Threads != 16 || r.Ops < 9_000 {
		t.Fatalf("threads=%d ops=%d, want 16 threads and ~10 000 ops", r.Threads, r.Ops)
	}
	if r.RemoteCPUUtil >= 0.005 {
		t.Errorf("remote CPU %.1f%% during a read-only phase, want 0", r.RemoteCPUUtil*100)
	}
	if r.P50 <= 0 || r.NetFromMem <= 0 {
		t.Errorf("p50=%v netFromMem=%d, want both > 0", r.P50, r.NetFromMem)
	}
	if r.Metrics.Counters["engine.read.table_fetches"] == 0 {
		t.Error("Metrics carries no engine telemetry, only the fabric's")
	}
}

// TestFigureChecks runs every check of the figure table that tier-1 can
// afford, at the smallest -n it holds from — the sentences that used to be
// Makefile prose.
func TestFigureChecks(t *testing.T) {
	for i := range Figures {
		f := &Figures[i]
		if f.Check == nil || f.CheckFrom > 10_000 {
			continue // -fig rebalance holds from -n 100000: `make rebalance` checks it
		}
		if f.ID == "scan" {
			continue // TestFigScanOrdering runs it on the two depths it compares
		}
		t.Run(f.ID, func(t *testing.T) {
			if err := f.Check(f.Measure(f.Grid(f.CheckFrom, []int{16}), nil)); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestDLSMBeatsBaselinesOnWrites(t *testing.T) {
	// The headline claim at moderate scale: dLSM writes faster than every
	// baseline (Fig 7a). Absolute margins are checked in EXPERIMENTS.md.
	cfg := Config{Threads: 8, N: 20_000}
	cfg.System = DLSM
	d := measure(cfg, FillRandom)
	for _, sys := range []System{RocksRDMA8K, NovaLSM, Sherman} {
		c := cfg
		c.System = sys
		r := measure(c, FillRandom)
		if r.Throughput >= d.Throughput {
			t.Errorf("%v writes %.0f ops/s >= dLSM %.0f ops/s", sys, r.Throughput, d.Throughput)
		}
		t.Logf("dLSM %.0f vs %v %.0f (%.1fx)", d.Throughput, sys, r.Throughput, d.Throughput/r.Throughput)
	}
}

func TestNearDataCompactionHelpsUnderWriteLoad(t *testing.T) {
	base := Config{System: DLSM, Threads: 16, N: 40_000}
	with := measure(base, FillRandom)
	without := base
	without.Options = computeSideCompaction
	wo := measure(without, FillRandom)
	t.Logf("near-data %.0f vs compute-side %.0f ops/s (%.2fx)",
		with.Throughput, wo.Throughput, with.Throughput/wo.Throughput)
	if with.Throughput < wo.Throughput*95/100 {
		t.Errorf("near-data compaction slower than compute-side: %.0f vs %.0f",
			with.Throughput, wo.Throughput)
	}
}

func TestRemoteCPUUtilizationReported(t *testing.T) {
	r := measure(Config{System: DLSM, Threads: 8, N: smokeN, MemoryCores: 2}, FillRandom)
	if r.RemoteCPUUtil <= 0 || r.RemoteCPUUtil > 1 {
		t.Fatalf("remote CPU utilization = %f", r.RemoteCPUUtil)
	}
	t.Logf("remote CPU (2 cores): %.0f%%", r.RemoteCPUUtil*100)
}

func TestLatencySamplesSane(t *testing.T) {
	// Read latencies include at least one network round trip, so the
	// percentiles must be positive and ordered. (Write latency is not
	// asserted: Puts buffer locally and their CPU charges are batched,
	// so an individual Put can complete in zero virtual time.)
	r := measure(Config{System: DLSM, Threads: 4, N: smokeN, KeyRange: smokeN}, ReadRandom)
	if r.P50 <= 0 || r.P99 < r.P50 {
		t.Fatalf("latency percentiles: p50=%v p99=%v", r.P50, r.P99)
	}
	if r.P50 > time.Second {
		t.Fatalf("p50 = %v implausible", r.P50)
	}
	t.Logf("read p50=%v p99=%v", r.P50, r.P99)
}
