package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/rdma"
	"dlsm/internal/repl"
	"dlsm/internal/service"
	"dlsm/internal/sim"
)

// Figures is the figure table: the paper's eleven figures (§XI) and this
// repository's nine, in `-fig all` order. An entry is the whole figure —
// adding one is adding an entry here and nothing anywhere else — and
// EXPERIMENTS.md says what each shows; the comments here are the reasons
// for an entry's constants, above all a thread count that is not
// max(-threads).
var Figures = []Fig{
	{ID: "7a", Name: "Fig 7(a)", Title: "write throughput, normal mode", XLabel: "threads",
		// Normal mode is level0_stop_writes_trigger = 36, the harness default.
		Rows: systems(AllSystems...), Cols: threadSweep},
	{ID: "7b", Name: "Fig 7(b)", Title: "write throughput, bulkload mode", XLabel: "threads",
		// Sherman has no bulkload mode (§XI-C1).
		Base: options(bulkload), Rows: systems(AllLSM...), Cols: threadSweep},
	{ID: "8", Name: "Fig 8", Title: "read throughput", XLabel: "threads",
		Base: func(c *Cell) { c.Workload = ReadRandom }, Rows: systems(AllSystems...), Cols: threadSweep},
	{ID: "9", Name: "Fig 9", XLabel: "keys",
		Passes: []Pass{
			{Workload: FillRandom, Table: "(write)", Title: "randomfill vs data size"},
			{Workload: ReadRandom, Table: "(read)", Title: "randomread vs data size"},
		},
		Rows: systems(AllSystems...),
		Cols: func(n int, _ []int) []Axis {
			return each([]int{n / 4, n / 2, n}, "%d", "n=%d", func(c *Cell, size int) { c.N = size })
		},
		Note: func(_ *Series, c *Cell) string {
			return fmt.Sprintf("%s, space %dMB", throughputs(c), c.R[1].SpaceUsed>>20)
		},
		Footer: func(w io.Writer, series []Series) {
			fmt.Fprintln(w, "\nRemote-memory space usage (§XI-C3):")
			byName := slices.Clone(series)
			slices.SortFunc(byName, func(a, b Series) int { return strings.Compare(a.Label, b.Label) })
			for _, s := range byName {
				var sizes []string
				for _, c := range s.Cells {
					sizes = append(sizes, fmt.Sprintf("%dMB", c.R[1].SpaceUsed>>20))
				}
				fmt.Fprintf(w, "  %-24s %s\n", s.Label, strings.Join(sizes, "  "))
			}
		},
	},
	{ID: "10", Name: "Fig 10", Title: "mixed read/write throughput", XLabel: "read%",
		Base: func(c *Cell) { c.Workload = Mixed },
		// dLSM at lambda = 1 and 8 (§VII) against every baseline.
		Rows: append([]Axis{
			{Label: "dLSM-1", At: "dLSM-1"},
			{Label: "dLSM-8", At: "dLSM-8", Set: func(c *Cell) { c.Lambda = 8 }},
		}, systems(AllSystems[1:]...)...),
		Cols: fixed(each([]int{0, 5, 50, 95, 100}, "%d%%", "read=%d%%", func(c *Cell, pct int) {
			c.ReadRatio = float64(pct) / 100
		})...),
	},
	{ID: "11", Name: "Fig 11", Title: "range query (readseq) throughput", XLabel: "",
		// Nova-LSM is omitted as in the paper.
		Base: func(c *Cell) { c.Workload, c.Threads = ReadSeq, 8 },
		Rows: systems(DLSM, RocksRDMA8K, RocksRDMA2K, MemoryRocks, Sherman),
		Cols: fixed(Axis{Label: "entries/s"})},
	{ID: "12", Name: "Fig 12", Title: "near-data compaction vs remote cores (normal-mode fill)", XLabel: "writers",
		// Compute-side compaction, which leaves the remote cores idle, is
		// the last group.
		Rows: append(each([]int{1, 2, 4, 8, 12}, "near-data, %d cores", "cores=%d", func(c *Cell, cores int) { c.MemoryCores = cores }),
			Axis{Label: "compute-side compaction", At: "no-near-data", Set: options(computeSideCompaction)}),
		Cols: fixed(each([]int{1, 8, 16}, "%d", "writers=%d", func(c *Cell, w int) { c.Threads = w })...),
		Note: func(s *Series, c *Cell) string {
			if s.Label == "compute-side compaction" {
				return throughputs(c)
			}
			return fmt.Sprintf("%s (remote CPU %.0f%%)", throughputs(c), c.R[0].RemoteCPUUtil*100)
		},
		Footer: utilization("Remote CPU utilization per point:", "  %-26s", func(r Result) string {
			return fmt.Sprintf("  %3.0f%%", r.RemoteCPUUtil*100)
		}),
	},
	{ID: "13", Name: "Fig 13", Title: "byte-addressable SSTable ablation", XLabel: "workload",
		// dLSM against itself on 8KB blocks (§VI).
		Passes: []Pass{{Workload: FillRandom, Col: "randomfill"}, {Workload: ReadRandom, Col: "randomread"}},
		Rows:   systems(DLSM, DLSMBlock), Cols: fixed(Axis{})},
	{ID: "14a", Name: "Fig 14(a)", Title: "scale out memory nodes (data grows with nodes)", XLabel: "memory nodes",
		// The reference series holds the same data in one memory node.
		// Walked by column so that each m's progress line is followed by
		// its reference's.
		Passes:   []Pass{{Workload: FillRandom, Row: "write"}, {Workload: ReadRandom, Row: "read"}},
		ByColumn: true,
		Base:     cloudlab,
		Rows: []Axis{
			{Label: "multi-node", Set: func(c *Cell) { c.At = fmt.Sprintf("fig14a m=%d n=%d", c.MemoryNodes, c.N) }},
			{Label: "single node, same data", Set: func(c *Cell) {
				c.At, c.MemoryNodes = fmt.Sprintf("fig14a single-node n=%d", c.N), 1
			}},
		},
		Cols: fixed(each([]int{1, 2, 4, 8, 16}, "%d", "", func(c *Cell, m int) {
			c.N, c.MemoryNodes, c.Lambda = c.N/4*m, m, max(8, m)
		})...),
	},
	{ID: "14b", Name: "Fig 14(b)", Title: "scale out compute nodes (1 memory node)", XLabel: "compute nodes",
		Passes: []Pass{{Workload: FillRandom, Row: "write"}, {Workload: ReadRandom, Row: "read"}},
		Base:   cloudlab,
		Rows:   []Axis{{}},
		// 8 threads per compute node, as in Fig 15.
		Cols: fixed(each([]int{1, 2, 4, 8}, "%d", "c=%d", func(c *Cell, k int) { c.ComputeNodes, c.Threads = k, 8*k })...),
	},
	{ID: "15", Name: "Fig 15", XLabel: "nodes",
		// xCxM: the data grows with the nodes.
		Passes: []Pass{
			{Workload: FillRandom, Table: "(write)", Title: "multi-node randomfill (xCxM)"},
			{Workload: ReadRandom, Table: "(read)", Title: "multi-node randomread (xCxM)"},
		},
		Base: cloudlab,
		Rows: systems(DLSM, NovaLSM, Sherman),
		Cols: fixed(each([]int{1, 2, 4, 8}, "%[1]dC%[1]dM", "x=%d", func(c *Cell, x int) {
			c.ComputeNodes, c.MemoryNodes, c.Threads, c.N = x, x, 8*x, c.N/4*x
		})...),
	},
	{ID: "cache", Name: "Fig cache", Title: "hot-KV cache: Zipf(1.2) readrandom vs budget", XLabel: "budget",
		// Budget 0 is the cache disabled — the pre-cache read path,
		// unchanged. Intermediate points sit below the laptop-scale working
		// set so every step of the sweep moves throughput; 64 MB is the
		// paper-scale budget (fully saturated at the default -n).
		Base: func(c *Cell) { c.Workload, c.Zipf = ReadRandom, 1.2 },
		Rows: systems(DLSM),
		Cols: fixed(cacheBudget("off", 0), cacheBudget("256KB", 256<<10), cacheBudget("1MB", 1<<20),
			cacheBudget("4MB", 4<<20), cacheBudget("64MB", 64<<20)),
		Note: func(_ *Series, c *Cell) string {
			m := c.R[0].Metrics.Counters
			rate := 0.0
			if lookups := m["cache.hits"] + m["cache.misses"]; lookups > 0 {
				rate = float64(m["cache.hits"]) / float64(lookups)
			}
			return fmt.Sprintf("%s (hit rate %.1f%%, neg hits %d)", throughputs(c), rate*100, m["cache.neg_hits"])
		},
	},
	{ID: "faults", Name: "Fig F", Title: "fillrandom under injected faults (dLSM)", XLabel: "scenario",
		// All scenarios share one seed, so runs are individually
		// reproducible. Its progress lines have always been tagged
		// "faults", not "figfaults".
		Rows: []Axis{{Label: "dLSM", Set: func(c *Cell) { c.At = "faults " + c.FaultScenario }}},
		Cols: fixed(each(FaultScenarios, "%s", "", func(c *Cell, sc string) { c.FaultScenario = sc })...),
		Note: counters("compaction fallbacks: %d", "compaction.fallback"),
	},
	{ID: "wal", Name: "Fig WAL", Title: "remote WAL durability modes (randomfill)", XLabel: "mode",
		// Logging off is the write path every other figure runs; +perwrite
		// is the stop-and-wait ablation of the pipelined commit path (one
		// record per doorbell, one doorbell in flight). The orderings need
		// writers to pipeline, so TestFigWALOrdering asserts them at its own
		// thread count and they are not a Check.
		Rows: systems(DLSM),
		Cols: fixed(named("off", nil),
			named("async", walMode(engine.DurabilityAsync, false)), named("async+perwrite", walMode(engine.DurabilityAsync, true)),
			named("sync", walMode(engine.DurabilitySync, false)), named("sync+perwrite", walMode(engine.DurabilitySync, true))),
		Note: counters("appends %d, doorbells %d, ring stalls %d", "wal.appends", "wal.doorbells", "wal.ring_stalls"),
	},
	{ID: "repl", Name: "Fig Repl", Title: "memnode replication: ack quorum + transfer mode (randomfill, sync WAL)", XLabel: "mode",
		// rf=1 is -fig wal's sync point apart from the second, idle memory
		// node; rf=2 runs both transfer modes the FORTH index-replication
		// study compares.
		Base: func(c *Cell) {
			c.MemoryNodes = 2
			setOptions(c, func(o *engine.Options) { o.Durability = engine.DurabilitySync })
		},
		Rows: systems(DLSM),
		Cols: fixed(named("rf=1", nil),
			named("rf=2 index-only", func(c *Cell) { c.ReplicationFactor = 2 }),
			named("rf=2 log-replay", func(c *Cell) {
				c.ReplicationFactor = 2
				setOptions(c, func(o *engine.Options) { o.ReplMode = repl.LogReplay })
			})),
		Note: counters("tables %d, sst repl bytes %d, wal mirror bytes %d, clone rpcs %d",
			"repl.tables", "repl.net_bytes", "wal.mirror_bytes", "repl.clone_rpcs"),
		// FORTH's claim: at equal durability index-only (each built extent
		// shipped once, primary→replica) moves strictly fewer replication
		// bytes than log-replay (read back and re-written).
		CheckFrom: 5_000,
		Check: func(series []Series) error {
			idx := series[0].Cell("rf=2 index-only").R[0].Metrics.Counters["repl.net_bytes"]
			log := series[0].Cell("rf=2 log-replay").R[0].Metrics.Counters["repl.net_bytes"]
			if idx <= 0 || idx >= log {
				return fmt.Errorf("index-only shipped %d replication bytes, log-replay %d: want 0 < index-only < log-replay", idx, log)
			}
			return nil
		},
	},
	{ID: "scan", Name: "Fig scan", Title: "pipelined scan prefetching: depth x chunk", XLabel: "depth",
		// Depth 2 is the default scan path; depth 1 is the synchronous
		// ablation. Two scanning threads: pipelining hides chunk wire
		// latency behind consumption, which shows only while the link has
		// headroom — at 8+ threads concurrent scans saturate the wire and
		// every depth converges on its bandwidth ceiling.
		Base: func(c *Cell) { c.Threads = 2 },
		Rows: []Axis{scanRow(ReadSeq, "readseq", 256<<10), scanRow(ReadSeq, "readseq", 2<<20),
			scanRow(ScanRandom, "scanrandom", 256<<10), scanRow(ScanRandom, "scanrandom", 2<<20)},
		Cols: fixed(each([]int{1, 2, 4, 8}, "%d", "depth=%d", func(c *Cell, depth int) {
			setOptions(c, func(o *engine.Options) { o.PrefetchDepth = depth })
		})...),
		Note: func(_ *Series, c *Cell) string {
			m := c.R[0].Metrics.Counters
			return fmt.Sprintf("%s (prefetched %dMB, wasted %dKB, stalled %dms)", throughputs(c),
				m["scan.bytes_prefetched"]>>20, m["scan.bytes_wasted"]>>10, m["scan.stall_ns"]/1e6)
		},
		// Pipelining beats the synchronous depth-1 path on full-table and
		// on 100-entry scans, and a short scan at the default depth
		// abandons at most 40% of what it prefetched (65% before the
		// readahead bounded unread bytes by bytes read).
		CheckFrom: 10_000,
		Check: func(series []Series) error {
			for i := range series {
				s := &series[i]
				d1, d2 := s.Cell("1").R[0], s.Cell("2").R[0]
				if d2.Throughput <= d1.Throughput {
					return fmt.Errorf("%s: depth 2 %.0f entries/s does not beat depth 1 %.0f", s.Label, d2.Throughput, d1.Throughput)
				}
				prefetched, wasted := d2.Metrics.Counters["scan.bytes_prefetched"], d2.Metrics.Counters["scan.bytes_wasted"]
				if s.Cells[0].Workload == ScanRandom && (prefetched == 0 || float64(wasted) > 0.40*float64(prefetched)) {
					return fmt.Errorf("%s: depth 2 wasted %d of %d prefetched bytes, want <= 40%%", s.Label, wasted, prefetched)
				}
			}
			return nil
		},
	},
	{ID: "scaleout", Name: "Fig Scaleout", Title: "aggregate read throughput vs compute nodes (1 primary + read-only secondaries)", XLabel: "compute nodes",
		// The measured phase is read-only, so it is bounded by compute-side
		// CPU and QPs — exactly what adding compute nodes multiplies. 8
		// threads per compute node: one node leaves the fabric headroom the
		// others use.
		Base: func(c *Cell) {
			c.Topology, c.Workload = Secondaries, ReadMostly
			setOptions(c, func(o *engine.Options) { o.Durability = engine.DurabilityAsync })
		},
		Rows: systems(DLSM),
		Cols: fixed(each([]int{1, 2, 4}, "%d", "c=%d", func(c *Cell, k int) { c.ComputeNodes, c.Threads = k, 8*k })...),
		Note: func(_ *Series, c *Cell) string {
			return fmt.Sprintf("%s (%d threads, remote CPU %.0f%%)", throughputs(c), c.R[0].Threads, 100*c.R[0].RemoteCPUUtil)
		},
		// One-sided reads make the workload compute-bound, so aggregate
		// throughput rises with every added compute node.
		CheckFrom: 5_000,
		Check: func(series []Series) error {
			cells := series[0].Cells
			for i := 1; i < len(cells); i++ {
				if cells[i].R[0].Throughput <= cells[i-1].R[0].Throughput {
					return fmt.Errorf("%s compute nodes read %.0f ops/s, no more than %s nodes' %.0f",
						cells[i].X, cells[i].R[0].Throughput, cells[i-1].X, cells[i-1].R[0].Throughput)
				}
			}
			return nil
		},
	},
	{ID: "offload", Name: "Fig Offload", Title: "write-path offload ablation (randomfill, sync WAL)", XLabel: "layers",
		// `all` is the flush path of every DB with a log: the memory node
		// builds the table from its resident log ring. The other columns
		// move layers back to the compute node (engine.FlushAblation), and
		// the cost model gets nonzero IndexByte/FilterKey so the index and
		// filter layers are separately visible in CPU utilization. 16
		// writer threads: high write pressure keeps the flush pipeline
		// busy, which is where the three layers spend compute CPU.
		Base: func(c *Cell) {
			c.Threads = 16
			setOptions(c, func(o *engine.Options) {
				o.Durability, o.Costs = engine.DurabilitySync, sim.DefaultCosts()
				o.Costs.IndexByte, o.Costs.FilterKey = 0.6, 250*time.Nanosecond
			})
		},
		Rows: systems(DLSM),
		Cols: fixed(named("off", flushAblation(engine.FlushOnCompute)), named("flush", flushAblation(engine.FlushDataOnly)),
			named("flush+index", flushAblation(engine.FlushDataAndIndex)), named("all", nil)),
		Note: func(_ *Series, c *Cell) string {
			r, m := c.R[0], c.R[0].Metrics.Counters
			return fmt.Sprintf("%s (compute CPU %.1f%%, remote CPU %.1f%%, flushes %d, built near data %d, fallback %d)", throughputs(c),
				r.ComputeCPUUtil*100, r.RemoteCPUUtil*100, m["engine.flushes"], m["offload.flushes"], m["offload.fallback"])
		},
		Footer: utilization("CPU utilization per point (compute / remote):", "  %-10s", func(r Result) string {
			return fmt.Sprintf("  %4.1f%%/%4.1f%%", r.ComputeCPUUtil*100, r.RemoteCPUUtil*100)
		}),
		// With all layers near data, compute CPU sits strictly below the
		// compute-side flush's, and every flush of the near-data columns
		// was built from the log ring on the memory node with no
		// compute-side fallback. Throughput is held to three quarters of
		// `off`, not to parity: a near-data flush reads the log twice on
		// the memory node, whose 12 cores it shares with compaction, and
		// with 16 writers on one shard those cores are what the writers end
		// up waiting for (0.97x `off` at -n 5000, 0.84x at 100000; with 16
		// memory-node cores `all` leads `off` by 13% — ROADMAP 6 (c)).
		CheckFrom: 5_000,
		Check: func(series []Series) error {
			s := &series[0]
			off, all := s.Cell("off").R[0], s.Cell("all").R[0]
			if all.ComputeCPUUtil >= off.ComputeCPUUtil {
				return fmt.Errorf("all layers near data use %.1f%% compute CPU, the compute-side flush %.1f%%: want strictly less", all.ComputeCPUUtil*100, off.ComputeCPUUtil*100)
			}
			if all.Throughput < 0.75*off.Throughput {
				return fmt.Errorf("all layers near data write %.0f ops/s, the compute-side flush %.0f: want at least three quarters of it", all.Throughput, off.Throughput)
			}
			for _, c := range s.Cells[1:] {
				m := c.R[0].Metrics.Counters
				if m["offload.fallback"] != 0 || m["offload.flushes"] == 0 || m["offload.flushes"] != m["engine.flushes"] {
					return fmt.Errorf("%s: %d flushes, %d built from the log ring, %d fell back: want all built near data, none fallen back",
						c.X, m["engine.flushes"], m["offload.flushes"], m["offload.fallback"])
				}
			}
			return nil
		},
	},
	{ID: "rebalance", Name: "Fig rebalance", Title: "elastic λ-sharding under a hot range", XLabel: "workload",
		// The hot band (90% of operations on 10% of the keys) lands inside
		// one of the four initial shards; the shifting fill moves it to a
		// different shard at each third of the run. 16 writer threads: the
		// hot shard must stall-pressure its memtable pipeline for the split
		// to pay off. The unmeasured warmup lets the balancer split and
		// settle first, so the figure compares steady-state geometries, not
		// cut-over cost.
		Base: func(c *Cell) {
			c.Threads, c.Lambda, c.ReadRatio, c.HotFrac, c.HotWidth, c.Warmup = 16, 4, 0.5, 0.9, 0.1, c.N
		},
		Rows: []Axis{named("dLSM static λ=4", nil), named("dLSM auto-balance", options(func(o *engine.Options) {
			o.AutoBalance, o.BalanceInterval = true, 2*time.Millisecond
		}))},
		Cols: fixed(named("fillrandom", nil), named("mixed-50r", func(c *Cell) { c.Workload = Mixed }),
			named("shifting-fill", func(c *Cell) { c.HotShift = 0.25 })),
		Note: counters("splits %d, migrates %d, merges %d", "balance.splits", "balance.migrates", "balance.merges"),
		// Auto-balance beats the static geometry on every workload, and
		// following the shifting hotspot takes at least two splits. Short
		// runs end before a split has paid for its cut-over (at -n 20000
		// auto-balance loses on fillrandom), hence the floor.
		CheckFrom: 100_000,
		Check: func(series []Series) error {
			static, auto := &series[0], &series[1]
			for i := range auto.Cells {
				if a, s := auto.Cells[i].R[0].Throughput, static.Cells[i].R[0].Throughput; a <= s {
					return fmt.Errorf("%s: auto-balance %.0f ops/s does not beat static %.0f", auto.Cells[i].X, a, s)
				}
			}
			if splits := auto.Cell("shifting-fill").R[0].Metrics.Counters["balance.splits"]; splits < 2 {
				return fmt.Errorf("shifting-fill: %d splits, want >= 2", splits)
			}
			return nil
		},
	},
	{ID: "ycsb", Name: "Fig YCSB", Title: "YCSB core workloads (single tenant, no limits)", XLabel: "workload",
		// Aside from the A-F matrix, the mixed-tenant scenario with and
		// without admission control on the scan tenant. Its limit is a
		// quarter of the rate the scan tenant reached with no limits, so the
		// scenario scales with -n. The p99 improvement needs enough clients
		// to saturate the link, so TestMixedTenantAdmissionImprovesP99
		// asserts it at its own client count and it is not a Check.
		Base: func(c *Cell) { c.Lambda = 4 },
		Rows: systems(DLSM),
		Cols: fixed(each([]byte("ABCDEF"), "YCSB-%c", "YCSB-%c", func(c *Cell, letter byte) {
			c.Tenants = []service.TenantConfig{{Name: "solo", Clients: c.Threads, Ops: c.N, Workload: service.YCSB(letter, c.N)}}
		})...),
		Note: func(_ *Series, c *Cell) string {
			r := c.R[0].Reports[0]
			return fmt.Sprintf("%s ops/s (p50=%v p99=%v p999=%v)", fmtTput(r.Throughput), r.P50, r.P99, r.P999)
		},
		Extra: func(grid []Series, progress func(string)) []Series {
			cfg := grid[0].Cells[0].Config.Normalize()
			open := Run(Point{Config: cfg, Tenants: mixedTenants(cfg, 0)})
			limit := open.Reports[1].Throughput / 4
			limited := Run(Point{Config: cfg, Tenants: mixedTenants(cfg, limit)})
			progress(fmt.Sprintf("figycsb mixed: frontend p99 %v (open) -> %v (analytics limited to %.0f/s, throttled %d)",
				open.Reports[0].P99, limited.Reports[0].P99, limit, limited.Reports[1].Throttled))
			return []Series{{Label: "mixed tenants", Extra: true, Cells: []Cell{
				{X: "open", R: []Result{open}}, {X: "limited", R: []Result{limited}}}}}
		},
		Footer: func(w io.Writer, series []Series) {
			fmt.Fprintln(w, "\nPer-workload SLOs (single tenant):")
			var rows []service.Report
			for _, c := range series[0].Cells {
				r := c.R[0].Reports[0]
				r.Tenant = c.X
				rows = append(rows, r)
			}
			service.WriteReports(w, rows)
			open, limited := series[1].Cell("open").R[0].Reports, series[1].Cell("limited").R[0].Reports
			fmt.Fprintln(w, "\nMixed tenants, no limits (frontend = YCSB-B, analytics = YCSB-E):")
			service.WriteReports(w, open)
			fmt.Fprintln(w, "\nMixed tenants, analytics rate-limited:")
			service.WriteReports(w, limited)
			fmt.Fprintf(w, "\nfrontend p99: %v -> %v (admission control on the scan tenant)\n", open[0].P99, limited[0].P99)
		},
	},
}

// each is an axis with one position per value, labelled and named in
// progress lines by the two formats.
func each[T any](vals []T, label, at string, set func(c *Cell, v T)) []Axis {
	var out []Axis
	for _, v := range vals {
		ax := Axis{Label: fmt.Sprintf(label, v), Set: func(c *Cell) { set(c, v) }}
		if at != "" {
			ax.At = fmt.Sprintf(at, v)
		}
		out = append(out, ax)
	}
	return out
}

// named is the axis position progress lines call by its label.
func named(label string, set func(c *Cell)) Axis { return Axis{Label: label, At: label, Set: set} }

// fixed is a column axis that depends on neither -n nor -threads.
func fixed(cols ...Axis) func(int, []int) []Axis {
	return func(int, []int) []Axis { return cols }
}

// threadSweep is the -threads list as columns.
func threadSweep(_ int, threads []int) []Axis {
	return each(threads, "%d", "threads=%d", func(c *Cell, th int) { c.Threads = th })
}

func systems(ss ...System) []Axis {
	return each(ss, "%v", "%v", func(c *Cell, sys System) { c.System = sys })
}

// setOptions adds h to the cell's engine.Options hook; options is the same
// as an axis delta.
func setOptions(c *Cell, h func(*engine.Options)) {
	prev := c.Options
	c.Options = func(o *engine.Options) {
		if prev != nil {
			prev(o)
		}
		h(o)
	}
}

func options(h func(*engine.Options)) func(c *Cell) {
	return func(c *Cell) { setOptions(c, h) }
}

// bulkload is level0_stop_writes_trigger = infinity (Fig 7b).
func bulkload(o *engine.Options) { o.L0StopTrigger = 0 }

// computeSideCompaction is the dLSM ablation that compacts on the compute
// node instead of near the data (Fig 12's last group).
func computeSideCompaction(o *engine.Options) { o.CompactionSite = engine.CompactLocal }

func cacheBudget(label string, bytes int64) Axis {
	return Axis{Label: label, At: "budget=" + label, Set: options(func(o *engine.Options) { o.CacheBudgetBytes = bytes })}
}

func walMode(d engine.Durability, perWrite bool) func(c *Cell) {
	return options(func(o *engine.Options) { o.Durability, o.WALPerWriteCommit = d, perWrite })
}

func flushAblation(a engine.FlushAblation) func(c *Cell) {
	return options(func(o *engine.Options) { o.FlushAblation = a })
}

// scanRow is one -fig scan series: a scan workload at a chunk ceiling.
func scanRow(w Workload, name string, chunk int) Axis {
	return Axis{Label: fmt.Sprintf("dLSM %s, %dKB chunks", name, chunk>>10), At: fmt.Sprintf("%s chunk=%dKB", name, chunk>>10),
		Set: func(c *Cell) {
			c.Workload = w
			setOptions(c, func(o *engine.Options) { o.PrefetchBytes = chunk })
		}}
}

// cloudlab puts the cell on the multi-node testbed of §XI-D — 16-core
// compute nodes, 8-core memory nodes, 56 Gb/s links — as a sliced cluster
// of λ=8 DBs.
func cloudlab(c *Cell) {
	c.Topology, c.Lambda, c.ComputeCores, c.MemoryCores, c.Link = Sliced, 8, 16, 8, rdma.FDR56()
}

// counters is the progress note that follows the throughput with telemetry
// counters of the run.
func counters(format string, names ...string) func(*Series, *Cell) string {
	return func(_ *Series, c *Cell) string {
		vals := make([]any, len(names))
		for i, name := range names {
			vals[i] = c.R[0].Metrics.Counters[name]
		}
		return throughputs(c) + " (" + fmt.Sprintf(format, vals...) + ")"
	}
}

// utilization is the footer that prints one CPU figure per point under the
// throughput table.
func utilization(title, label string, point func(Result) string) func(io.Writer, []Series) {
	return func(w io.Writer, series []Series) {
		fmt.Fprintln(w, "\n"+title)
		for _, s := range series {
			fmt.Fprintf(w, label, s.Label)
			for _, c := range s.Cells {
				fmt.Fprint(w, point(c.R[0]))
			}
			fmt.Fprintln(w)
		}
	}
}

// mixedTenants builds -fig ycsb's two-tenant scenario: a latency-sensitive
// YCSB-B tenant beside a scan-heavy YCSB-E one. limit rate-limits the
// latter (requests/second of virtual time; 0 = no limits).
func mixedTenants(cfg Config, limit float64) []service.TenantConfig {
	clients := max(1, cfg.Threads/2)
	frontend := service.TenantConfig{Name: "frontend", Clients: clients, Ops: cfg.N / 2, Workload: service.YCSB('B', cfg.KeyRange)}
	// The scan tenant has to keep the memnode->compute link busy to be a
	// noisy neighbour at all. YCSB-E's stock 100-entry scans stopped doing
	// that once the default scan path quit fetching a 2 MiB chunk per table
	// per seek, so analytics runs scans of up to 1 000 entries (long enough
	// for every table's window to ramp to reads of tens of KiB that point
	// reads queue behind) from twice the frontend's clients.
	scans := service.YCSB('E', cfg.KeyRange)
	scans.MaxScanLen = 1000
	// ~500 entries a scan: a fiftieth of the frontend's op budget keeps
	// the two tenants' runtimes comparable.
	analytics := service.TenantConfig{Name: "analytics", Clients: 2 * clients, Ops: cfg.N / 100, Workload: scans}
	if limit > 0 {
		analytics.RatePerSec = limit
		analytics.Burst = 8
		// Queue at most one token interval deep; beyond that, fail fast.
		// (A closed loop of c clients queues at most c deep, so a deadline
		// of many intervals would never throttle anything.)
		analytics.AdmissionDeadline = time.Duration(float64(time.Second) / limit)
	}
	return []service.TenantConfig{frontend, analytics}
}
