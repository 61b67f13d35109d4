package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

// Figure is one reproduced table/figure: labeled series of data points.
type Figure struct {
	Name   string // e.g. "Fig 7(a)"
	Title  string
	XLabel string
	Series []Series
}

// Series is one line/bar group of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Point is one measurement at an x position.
type Point struct {
	X string
	R Result
}

// Print renders the figure as a throughput table, one row per series.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s: %s\n", f.Name, f.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", f.XLabel)
	if len(f.Series) > 0 {
		for _, p := range f.Series[0].Points {
			fmt.Fprintf(tw, "\t%s", p.X)
		}
	}
	fmt.Fprintln(tw)
	for _, s := range f.Series {
		fmt.Fprintf(tw, "%s", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(tw, "\t%s", fmtTput(p.R.Throughput))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// PrintMetrics renders one telemetry snapshot for the figure: the richest
// point of the first series carrying one (the first series is dLSM in the
// system sweeps), preferring its last point — the fullest run, with latency
// histograms, flush-pipeline stats, per-level compaction and per-link
// network bytes.
func (f *Figure) PrintMetrics(w io.Writer) {
	var best *Point
	var bestSeries string
	size := func(p Point) int {
		return len(p.R.Metrics.Counters) + len(p.R.Metrics.Gauges) + len(p.R.Metrics.Histograms)
	}
	for si := range f.Series {
		for pi := range f.Series[si].Points {
			p := &f.Series[si].Points[pi]
			if p.R.Metrics.Empty() {
				continue
			}
			if best == nil || size(*p) >= size(*best) {
				best, bestSeries = p, f.Series[si].Label
			}
		}
		if best != nil {
			break // stay within the first series that has metrics at all
		}
	}
	if best == nil {
		return
	}
	fmt.Fprintf(w, "\n%s metrics (%s, %s=%s):\n", f.Name, bestSeries, f.XLabel, best.X)
	best.R.Metrics.WriteText(w)
}

func fmtTput(t float64) string {
	switch {
	case t >= 1e6:
		return fmt.Sprintf("%.2fM", t/1e6)
	case t >= 1e3:
		return fmt.Sprintf("%.1fK", t/1e3)
	default:
		return fmt.Sprintf("%.0f", t)
	}
}

// Progress, when non-nil, receives one line per completed data point.
var Progress func(format string, args ...any)

func progress(format string, args ...any) {
	if Progress != nil {
		Progress(format, args...)
	}
}

// Fig7a reproduces Fig 7(a): random-write throughput vs threads, normal
// mode (level0_stop_writes_trigger = 36), all six systems.
func Fig7a(n int, threads []int) *Figure {
	f := &Figure{Name: "Fig 7(a)", Title: "write throughput, normal mode", XLabel: "threads"}
	for _, sys := range AllSystems {
		s := Series{Label: sys.String()}
		for _, th := range threads {
			r := FillRandom(Config{System: sys, Threads: th, N: n})
			progress("fig7a %s threads=%d: %s ops/s", sys, th, fmtTput(r.Throughput))
			s.Points = append(s.Points, Point{X: fmt.Sprint(th), R: r})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig7b reproduces Fig 7(b): bulkload mode (no L0 write stalls); Sherman
// is not applicable (§XI-C1).
func Fig7b(n int, threads []int) *Figure {
	f := &Figure{Name: "Fig 7(b)", Title: "write throughput, bulkload mode", XLabel: "threads"}
	for _, sys := range AllLSM {
		s := Series{Label: sys.String()}
		for _, th := range threads {
			r := FillRandom(Config{System: sys, Threads: th, N: n, Bulkload: true})
			progress("fig7b %s threads=%d: %s ops/s", sys, th, fmtTput(r.Throughput))
			s.Points = append(s.Points, Point{X: fmt.Sprint(th), R: r})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig8 reproduces Fig 8: random-read throughput vs threads after
// compaction settles.
func Fig8(n int, threads []int) *Figure {
	f := &Figure{Name: "Fig 8", Title: "read throughput", XLabel: "threads"}
	for _, sys := range AllSystems {
		s := Series{Label: sys.String()}
		for _, th := range threads {
			r := ReadRandom(Config{System: sys, Threads: th, N: n, KeyRange: n})
			progress("fig8 %s threads=%d: %s ops/s", sys, th, fmtTput(r.Throughput))
			s.Points = append(s.Points, Point{X: fmt.Sprint(th), R: r})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig9 reproduces Fig 9: write and read throughput at growing data sizes,
// plus the remote-memory space usage reported in §XI-C3.
func Fig9(sizes []int, threads int) (write, read *Figure, space map[string][]string) {
	write = &Figure{Name: "Fig 9(write)", Title: "randomfill vs data size", XLabel: "keys"}
	read = &Figure{Name: "Fig 9(read)", Title: "randomread vs data size", XLabel: "keys"}
	space = map[string][]string{}
	for _, sys := range AllSystems {
		ws := Series{Label: sys.String()}
		rs := Series{Label: sys.String()}
		for _, n := range sizes {
			w := FillRandom(Config{System: sys, Threads: threads, N: n, KeyRange: n})
			r := ReadRandom(Config{System: sys, Threads: threads, N: n, KeyRange: n})
			progress("fig9 %s n=%d: write %s, read %s, space %dMB",
				sys, n, fmtTput(w.Throughput), fmtTput(r.Throughput), r.SpaceUsed>>20)
			ws.Points = append(ws.Points, Point{X: fmt.Sprint(n), R: w})
			rs.Points = append(rs.Points, Point{X: fmt.Sprint(n), R: r})
			space[sys.String()] = append(space[sys.String()], fmt.Sprintf("%dMB", r.SpaceUsed>>20))
		}
		write.Series = append(write.Series, ws)
		read.Series = append(read.Series, rs)
	}
	return write, read, space
}

// Fig10 reproduces Fig 10: mixed read/write throughput vs read ratio, with
// dLSM at lambda = 1 and 8 (§VII).
func Fig10(n int, threads int, ratios []float64) *Figure {
	f := &Figure{Name: "Fig 10", Title: "mixed read/write throughput", XLabel: "read%"}
	type variant struct {
		label  string
		sys    System
		lambda int
	}
	variants := []variant{
		{"dLSM-1", DLSM, 1},
		{"dLSM-8", DLSM, 8},
		{"RocksDB-RDMA (8KB)", RocksRDMA8K, 1},
		{"RocksDB-RDMA (2KB)", RocksRDMA2K, 1},
		{"Memory-RocksDB-RDMA", MemoryRocks, 1},
		{"Nova-LSM", NovaLSM, 1},
		{"Sherman", Sherman, 1},
	}
	for _, v := range variants {
		s := Series{Label: v.label}
		for _, ratio := range ratios {
			r := Mixed(Config{System: v.sys, Threads: threads, N: n, KeyRange: n,
				ReadRatio: ratio, Lambda: v.lambda})
			progress("fig10 %s read=%.0f%%: %s ops/s", v.label, ratio*100, fmtTput(r.Throughput))
			s.Points = append(s.Points, Point{X: fmt.Sprintf("%.0f%%", ratio*100), R: r})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig11 reproduces Fig 11: full-table scan throughput (entries/s) with
// prefetching enabled; Nova-LSM is omitted as in the paper.
func Fig11(n int, threads int) *Figure {
	f := &Figure{Name: "Fig 11", Title: "range query (readseq) throughput", XLabel: ""}
	for _, sys := range []System{DLSM, RocksRDMA8K, RocksRDMA2K, MemoryRocks, Sherman} {
		r := ReadSeq(Config{System: sys, Threads: threads, N: n, KeyRange: n})
		progress("fig11 %s: %s entries/s", sys, fmtTput(r.Throughput))
		f.Series = append(f.Series, Series{Label: sys.String(),
			Points: []Point{{X: "entries/s", R: r}}})
	}
	return f
}

// FigScan sweeps the pipelined scan prefetcher: depth {1,2,4,8} crossed
// with chunk ceiling {256KB, 2MB} on full-table scans (readseq) and
// 100-entry random range scans (scanrandom). Depth 2 is the default scan
// path; depth 1 is the synchronous ablation, one ceiling-sized read per
// table per seek. Run with few threads: pipelining hides chunk wire
// latency behind consumption, which shows only while the link has
// headroom — many concurrent scans saturate the wire at any depth. Each
// point reports the prefetch telemetry.
func FigScan(n, threads int) *Figure {
	return figScan(n, threads, []int{256 << 10, 2 << 20}, []int{1, 2, 4, 8})
}

// figScan is FigScan over a chosen grid (TestFigScanOrdering runs the two
// depths it asserts on, at the default ceiling).
func figScan(n, threads int, chunks, depths []int) *Figure {
	f := &Figure{Name: "Fig scan", Title: "pipelined scan prefetching: depth x chunk", XLabel: "depth"}
	workloads := []struct {
		label string
		run   func(Config) Result
	}{
		{"readseq", ReadSeq},
		{"scanrandom", ScanRandom},
	}
	for _, w := range workloads {
		for _, chunk := range chunks {
			s := Series{Label: fmt.Sprintf("dLSM %s, %dKB chunks", w.label, chunk>>10)}
			for _, d := range depths {
				r := w.run(Config{System: DLSM, Threads: threads, N: n, KeyRange: n,
					PrefetchDepth: d, PrefetchBytes: chunk})
				c := r.Metrics.Counters
				progress("figscan %s chunk=%dKB depth=%d: %s entries/s (prefetched %dMB, wasted %dKB, stalled %dms)",
					w.label, chunk>>10, d, fmtTput(r.Throughput),
					c["scan.bytes_prefetched"]>>20, c["scan.bytes_wasted"]>>10,
					c["scan.stall_ns"]/1e6)
				s.Points = append(s.Points, Point{X: fmt.Sprint(d), R: r})
			}
			f.Series = append(f.Series, s)
		}
	}
	return f
}

// FigCache sweeps the compute-side hot-KV cache budget on a Zipf-skewed
// readrandom workload (s=1.2, scrambled hot set). Budget 0 is the cache
// disabled — the pre-cache read path, unchanged. Each point reports the
// telemetry hit rate alongside throughput.
func FigCache(n, threads int) *Figure {
	f := &Figure{Name: "Fig cache", Title: "hot-KV cache: Zipf(1.2) readrandom vs budget", XLabel: "budget"}
	// Intermediate points sit below the laptop-scale working set so every
	// step of the sweep moves throughput; 64 MB is the paper-scale budget
	// (fully saturated at the default -n).
	budgets := []int64{0, 256 << 10, 1 << 20, 4 << 20, 64 << 20}
	s := Series{Label: "dLSM"}
	for _, b := range budgets {
		r := ReadRandom(Config{System: DLSM, Threads: threads, N: n, KeyRange: n,
			Zipf: 1.2, CacheBudgetBytes: b})
		progress("figcache budget=%s: %s ops/s (hit rate %.1f%%, neg hits %d)",
			fmtBudget(b), fmtTput(r.Throughput), cacheHitRate(r)*100,
			r.Metrics.Counters["cache.neg_hits"])
		s.Points = append(s.Points, Point{X: fmtBudget(b), R: r})
	}
	f.Series = append(f.Series, s)
	return f
}

// FigWAL sweeps the remote write-ahead log's durability modes on a
// randomfill workload: logging off (the pre-WAL write path, the bit-exact
// baseline for every other figure), Async and Sync — each with the
// pipelined commit path (default) and with its stop-and-wait ablation
// (WALPerWrite). The per-point doorbell counts show how often records
// left alone; TestFigWALOrdering asserts the orderings.
func FigWAL(n, threads int) *Figure {
	f := &Figure{Name: "Fig WAL", Title: "remote WAL durability modes (randomfill)", XLabel: "mode"}
	variants := []struct {
		label    string
		d        engine.Durability
		perWrite bool
	}{
		{"off", engine.DurabilityNone, false},
		{"async", engine.DurabilityAsync, false},
		{"async+perwrite", engine.DurabilityAsync, true},
		{"sync", engine.DurabilitySync, false},
		{"sync+perwrite", engine.DurabilitySync, true},
	}
	s := Series{Label: "dLSM"}
	for _, v := range variants {
		r := FillRandom(Config{System: DLSM, Threads: threads, N: n,
			Durability: v.d, WALPerWrite: v.perWrite})
		c := r.Metrics.Counters
		progress("figwal %s: %s ops/s (appends %d, doorbells %d, ring stalls %d)",
			v.label, fmtTput(r.Throughput),
			c["wal.appends"], c["wal.doorbells"], c["wal.ring_stalls"])
		s.Points = append(s.Points, Point{X: v.label, R: r})
	}
	f.Series = append(f.Series, s)
	return f
}

// FigOffload sweeps the three write-path offload layers (flush
// serialization, block-index build, bloom-filter build) on a randomfill
// workload with the sync remote WAL on — so every offloaded flush replays
// the memnode-resident log ring instead of re-shipping the memtable. The
// cost model gets nonzero IndexByte/FilterKey so the index and filter
// layers are separately visible in CPU utilization; with all layers on,
// compute CPU must sit strictly below the no-offload baseline at no worse
// throughput.
func FigOffload(n, threads int) *Figure {
	costs := sim.DefaultCosts()
	costs.IndexByte = 0.6
	costs.FilterKey = 250 * time.Nanosecond
	f := &Figure{Name: "Fig Offload", Title: "write-path offload ablation (randomfill, sync WAL)", XLabel: "layers"}
	variants := []struct {
		label           string
		flush, idx, flt bool
	}{
		{"off", false, false, false},
		{"flush", true, false, false},
		{"flush+index", true, true, false},
		{"all", true, true, true},
	}
	s := Series{Label: "dLSM"}
	for _, v := range variants {
		r := FillRandom(Config{System: DLSM, Threads: threads, N: n,
			Durability: engine.DurabilitySync, Costs: costs,
			OffloadFlush: v.flush, OffloadIndexBuild: v.idx, OffloadFilter: v.flt})
		c := r.Metrics.Counters
		progress("figoffload %s: %s ops/s (compute CPU %.1f%%, remote CPU %.1f%%, offloaded %d, replay %d, fallback %d)",
			v.label, fmtTput(r.Throughput),
			r.ComputeCPUUtil*100, r.RemoteCPUUtil*100,
			c["offload.flushes"], c["offload.replay"], c["offload.fallback"])
		s.Points = append(s.Points, Point{X: v.label, R: r})
	}
	f.Series = append(f.Series, s)
	return f
}

// cacheHitRate extracts the value-cache hit fraction from a run's
// telemetry snapshot (0 when the cache was off).
func cacheHitRate(r Result) float64 {
	h := r.Metrics.Counters["cache.hits"]
	m := r.Metrics.Counters["cache.misses"]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func fmtBudget(b int64) string {
	switch {
	case b == 0:
		return "off"
	case b < 1<<20:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dMB", b>>20)
	}
}

// Fig12 reproduces Fig 12: the impact of remote CPU cores on near-data
// compaction at different writer counts, with compute-side compaction as
// the rightmost group. Each point is annotated with remote CPU
// utilization.
func Fig12(n int, cores []int, writers []int) *Figure {
	f := &Figure{Name: "Fig 12", Title: "near-data compaction vs remote cores (normal-mode fill)", XLabel: "writers"}
	for _, c := range cores {
		s := Series{Label: fmt.Sprintf("near-data, %d cores", c)}
		for _, w := range writers {
			r := FillRandom(Config{System: DLSM, Threads: w, N: n, MemoryCores: c})
			progress("fig12 cores=%d writers=%d: %s ops/s (remote CPU %.0f%%)",
				c, w, fmtTput(r.Throughput), r.RemoteCPUUtil*100)
			s.Points = append(s.Points, Point{X: fmt.Sprint(w), R: r})
		}
		f.Series = append(f.Series, s)
	}
	s := Series{Label: "compute-side compaction"}
	for _, w := range writers {
		r := FillRandom(Config{System: DLSM, Threads: w, N: n, DisableNearData: true})
		progress("fig12 no-near-data writers=%d: %s ops/s", w, fmtTput(r.Throughput))
		s.Points = append(s.Points, Point{X: fmt.Sprint(w), R: r})
	}
	f.Series = append(f.Series, s)
	return f
}

// Fig13 reproduces Fig 13: dLSM vs dLSM-Block (8KB) on random writes and
// reads — the byte-addressable SSTable ablation (§VI).
func Fig13(n int, threads int) *Figure {
	f := &Figure{Name: "Fig 13", Title: "byte-addressable SSTable ablation", XLabel: "workload"}
	for _, sys := range []System{DLSM, DLSMBlock} {
		w := FillRandom(Config{System: sys, Threads: threads, N: n, KeyRange: n})
		r := ReadRandom(Config{System: sys, Threads: threads, N: n, KeyRange: n})
		progress("fig13 %s: write %s, read %s", sys, fmtTput(w.Throughput), fmtTput(r.Throughput))
		f.Series = append(f.Series, Series{Label: sys.String(), Points: []Point{
			{X: "randomfill", R: w},
			{X: "randomread", R: r},
		}})
	}
	return f
}

// Fig14a reproduces Fig 14(a): one compute node, scaling memory nodes with
// the data volume; the reference series holds the same data in one node.
func Fig14a(baseN int, memNodes []int, threads int) *Figure {
	f := &Figure{Name: "Fig 14(a)", Title: "scale out memory nodes (data grows with nodes)", XLabel: "memory nodes"}
	wr := Series{Label: "write (multi-node)"}
	rd := Series{Label: "read (multi-node)"}
	wrRef := Series{Label: "write (single node, same data)"}
	rdRef := Series{Label: "read (single node, same data)"}
	for _, m := range memNodes {
		n := baseN * m
		cfgM := Config{System: DLSM, Threads: threads, N: n, KeyRange: n,
			ComputeNodes: 1, MemoryNodes: m, Lambda: max(8, m),
			ComputeCores: 16, MemoryCores: 8, Link: rdma.FDR56()}
		w := runCluster(cfgM, opFill, false)
		r := runCluster(cfgM, opRead, true)
		progress("fig14a m=%d n=%d: write %s, read %s", m, n, fmtTput(w.Throughput), fmtTput(r.Throughput))
		wr.Points = append(wr.Points, Point{X: fmt.Sprint(m), R: Result{Throughput: w.Throughput}})
		rd.Points = append(rd.Points, Point{X: fmt.Sprint(m), R: Result{Throughput: r.Throughput}})

		cfg1 := cfgM
		cfg1.MemoryNodes = 1
		w1 := runCluster(cfg1, opFill, false)
		r1 := runCluster(cfg1, opRead, true)
		progress("fig14a single-node n=%d: write %s, read %s", n, fmtTput(w1.Throughput), fmtTput(r1.Throughput))
		wrRef.Points = append(wrRef.Points, Point{X: fmt.Sprint(m), R: Result{Throughput: w1.Throughput}})
		rdRef.Points = append(rdRef.Points, Point{X: fmt.Sprint(m), R: Result{Throughput: r1.Throughput}})
	}
	f.Series = []Series{wr, wrRef, rd, rdRef}
	return f
}

// Fig14b reproduces Fig 14(b): one memory node, scaling compute nodes at
// fixed data size.
func Fig14b(n int, computeNodes []int, threadsPerNode int) *Figure {
	f := &Figure{Name: "Fig 14(b)", Title: "scale out compute nodes (1 memory node)", XLabel: "compute nodes"}
	wr := Series{Label: "write"}
	rd := Series{Label: "read"}
	for _, c := range computeNodes {
		cfg := Config{System: DLSM, Threads: c * threadsPerNode, N: n, KeyRange: n,
			ComputeNodes: c, MemoryNodes: 1, Lambda: 8,
			ComputeCores: 16, MemoryCores: 8, Link: rdma.FDR56()}
		w := runCluster(cfg, opFill, false)
		r := runCluster(cfg, opRead, true)
		progress("fig14b c=%d: write %s, read %s", c, fmtTput(w.Throughput), fmtTput(r.Throughput))
		wr.Points = append(wr.Points, Point{X: fmt.Sprint(c), R: Result{Throughput: w.Throughput}})
		rd.Points = append(rd.Points, Point{X: fmt.Sprint(c), R: Result{Throughput: r.Throughput}})
	}
	f.Series = []Series{wr, rd}
	return f
}

// Fig14aPoint measures one Fig 14(a) write point: 1 compute node, m memory
// nodes, data scaled with m.
func Fig14aPoint(baseN, m, threads int) ClusterResult {
	return runCluster(Config{System: DLSM, Threads: threads, N: baseN * m, KeyRange: baseN * m,
		ComputeNodes: 1, MemoryNodes: m, Lambda: max(8, m),
		ComputeCores: 16, MemoryCores: 8, Link: rdma.FDR56()}, opFill, false)
}

// Fig14bPoint measures one Fig 14(b) write point: c compute nodes, 1
// memory node.
func Fig14bPoint(n, c, threadsPerNode int) ClusterResult {
	return runCluster(Config{System: DLSM, Threads: c * threadsPerNode, N: n, KeyRange: n,
		ComputeNodes: c, MemoryNodes: 1, Lambda: 8,
		ComputeCores: 16, MemoryCores: 8, Link: rdma.FDR56()}, opFill, false)
}

// Fig15Point measures one Fig 15 write point: x compute and x memory
// nodes, data scaled with x.
func Fig15Point(sys System, baseN, x, threadsPerNode int) ClusterResult {
	return runCluster(Config{System: sys, Threads: x * threadsPerNode, N: baseN * x, KeyRange: baseN * x,
		ComputeNodes: x, MemoryNodes: x, Lambda: 8,
		ComputeCores: 16, MemoryCores: 8, Link: rdma.FDR56()}, opFill, false)
}

// Fig15 reproduces Fig 15: scaling compute and memory nodes together
// (xCxM, lambda=8, data grows with nodes) for dLSM, Nova-LSM and Sherman.
func Fig15(baseN int, nodes []int, threadsPerNode int) (write, read *Figure) {
	write = &Figure{Name: "Fig 15(write)", Title: "multi-node randomfill (xCxM)", XLabel: "nodes"}
	read = &Figure{Name: "Fig 15(read)", Title: "multi-node randomread (xCxM)", XLabel: "nodes"}
	for _, sys := range []System{DLSM, NovaLSM, Sherman} {
		ws := Series{Label: sys.String()}
		rs := Series{Label: sys.String()}
		for _, x := range nodes {
			n := baseN * x
			cfg := Config{System: sys, Threads: x * threadsPerNode, N: n, KeyRange: n,
				ComputeNodes: x, MemoryNodes: x, Lambda: 8,
				ComputeCores: 16, MemoryCores: 8, Link: rdma.FDR56()}
			w := runCluster(cfg, opFill, false)
			r := runCluster(cfg, opRead, true)
			progress("fig15 %s x=%d: write %s, read %s", sys, x, fmtTput(w.Throughput), fmtTput(r.Throughput))
			ws.Points = append(ws.Points, Point{X: fmt.Sprintf("%dC%dM", x, x), R: Result{Throughput: w.Throughput}})
			rs.Points = append(rs.Points, Point{X: fmt.Sprintf("%dC%dM", x, x), R: Result{Throughput: r.Throughput}})
		}
		write.Series = append(write.Series, ws)
		read.Series = append(read.Series, rs)
	}
	return write, read
}
