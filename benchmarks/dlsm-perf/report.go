package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"text/tabwriter"

	"dlsm"
	"dlsm/internal/telemetry"
)

// metric is one reported number. Value is nil when the run cannot support
// it (a percentile with fewer than ten samples beyond it).
type metric struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Clock   string   `json:"clock"`
	Better  string   `json:"better"`
	Value   *float64 `json:"value"`
	Samples int64    `json:"samples,omitempty"`
	Bound   float64  `json:"bound,omitempty"`
}

// workloadReport is everything one run of one workload measured.
type workloadReport struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	Traced    bool    `json:"traced"`
	Units     int64   `json:"units"` // ops, or entries on the scan workloads
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// MeasureWallNS is the host wall time of the measured phase; the traced
	// pass divides by the untraced pass's to get the tracing overhead.
	MeasureWallNS int64            `json:"measure_wall_ns"`
	EndToEnd      []metric         `json:"end_to_end,omitempty"`
	PerLayer      []metric         `json:"per_layer,omitempty"`
	SpanCounts    map[string]int64 `json:"span_counts,omitempty"`
	TraceFile     string           `json:"trace_file,omitempty"`
}

// report is the merged output of -all.
type report struct {
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Seed      int64            `json:"seed"`
	Scale     float64          `json:"scale"`
	Workloads []workloadReport `json:"workloads"`
}

func newReport(seed int64, scale float64) *report {
	return &report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: seed, Scale: scale}
}

func (r *workloadReport) find(name string) *metric {
	for _, list := range [][]metric{r.EndToEnd, r.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

func (r *report) find(workload string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Workload == workload {
			return &r.Workloads[i]
		}
	}
	return nil
}

// metricSet collects values against a table of definitions, so a name
// outside the table, set twice or never set is caught where it happens.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]metric{}}
}

func (s *metricSet) set(name string, v float64, samples int64) { s.put(name, &v, samples) }
func (s *metricSet) null(name string, samples int64)           { s.put(name, nil, samples) }

func (s *metricSet) put(name string, v *float64, samples int64) {
	if _, dup := s.vals[name]; dup {
		panic("dlsm-perf: metric reported twice: " + name)
	}
	for _, d := range s.defs {
		if d.Name == name {
			s.vals[name] = metric{d.Name, d.Unit, d.Clock, d.Better, v, samples, d.Bound}
			return
		}
	}
	panic("dlsm-perf: metric not in the spec: " + name)
}

// finish returns the metrics in table order.
func (s *metricSet) finish() []metric {
	out := make([]metric, 0, len(s.defs))
	for _, d := range s.defs {
		m, ok := s.vals[d.Name]
		if !ok {
			panic("dlsm-perf: metric never reported: " + d.Name)
		}
		out = append(out, m)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counter and gauge read the measured-phase change of a counter and the
// end-of-phase level of a gauge.
func (m *measurement) counter(name string) float64 {
	return float64(m.db1.Counters[name] - m.db0.Counters[name])
}

func (m *measurement) gauge(name string) float64 { return float64(m.db1.Gauges[name]) }

// histDelta is the histogram of samples observed during the measured phase.
func (m *measurement) histDelta(name string) telemetry.HistogramSnapshot {
	after, before := m.db1.Histograms[name], m.db0.Histograms[name]
	d := telemetry.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	d.Buckets = make([]int64, len(after.Buckets))
	for i, n := range after.Buckets {
		d.Buckets[i] = n
		if i < len(before.Buckets) {
			d.Buckets[i] -= before.Buckets[i]
		}
	}
	return d
}

// report turns the run's raw measurements into metrics.
func (b *bench) report() (*workloadReport, error) {
	m := &b.m
	r := &workloadReport{
		Workload:  b.w.name,
		Seed:      b.cfg.seed,
		Scale:     b.cfg.scale,
		Traced:    b.cfg.trace,
		Attempted: b.attempted,
		Failed:    b.failed,
	}
	setupS := float64(b.phaseHost("bench.deploy", "bench.preload", "bench.settle")) / 1e9
	if b.cfg.setupOnly {
		e := newMetricSet([]metricDef{endToEnd[len(endToEnd)-1]})
		e.set("setup_s", setupS, 1)
		r.EndToEnd = e.finish()
		return r, nil
	}
	for _, c := range b.measured {
		r.Units += c.units
	}
	r.MeasureWallNS = m.h1.wall - m.h0.wall
	units := float64(r.Units)
	vns := float64(m.v1 - m.v0)

	if !b.cfg.trace {
		// End-to-end metrics come from the untraced pass only.
		e := newMetricSet(endToEnd)
		e.set("vtput_ops_s", ratio(units, vns/1e9), r.Units)
		lat := sortedLatencies(b.measured)
		for _, p := range []struct {
			name string
			q    float64
		}{{"vlat_p50_ns", 0.50}, {"vlat_p99_ns", 0.99}, {"vlat_p999_ns", 0.999}} {
			if v, ok := percentile(lat, p.q); ok {
				e.set(p.name, float64(v), int64(len(lat)))
			} else {
				e.null(p.name, int64(len(lat)))
			}
		}
		wire := float64(m.toMem1[0] - m.toMem0[0] + m.fromMem1[0] - m.fromMem0[0])
		e.set("wire_bytes_per_op", ratio(wire, units), r.Units)
		cn, mn := b.d.Compute[0], b.d.Servers[0].Node()
		e.set("compute_cpu_ns_per_op", ratio(m.computeUtil*float64(cn.CPU.Cores())*vns, units), r.Units)
		e.set("memnode_cpu_ns_per_op", ratio(m.memnodeUtil*float64(mn.CPU.Cores())*vns, units), r.Units)
		e.set("space_amp", ratio(float64(m.spaceUsed), float64(b.liveKeys*entrySize)), 1)
		e.set("host_alloc_bytes_per_op", ratio(float64(m.h1.allocBytes-m.h0.allocBytes), units), r.Units)
		e.set("host_mallocs_per_op", ratio(float64(m.h1.mallocs-m.h0.mallocs), units), r.Units)
		e.set("host_minor_faults_per_op", ratio(float64(m.h1.minflt-m.h0.minflt), units), r.Units)
		e.set("host_peak_rss_mb", float64(vmHWM())/(1<<20), 1)
		e.set("setup_s", setupS, 1)
		r.EndToEnd = e.finish()
		return r, nil
	}

	p := newMetricSet(perLayer)
	b.layerMetrics(p, r)
	runProbes(p, b.cfg.scale)
	r.PerLayer = p.finish()
	r.SpanCounts = b.spanCounts()
	if b.cfg.outDir != "" {
		path, err := b.writeTrace(b.cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		r.TraceFile = path
	}
	return r, nil
}

// layerMetrics fills the per-layer metrics that are measured-phase deltas
// of the public telemetry snapshots and host counters.
func (b *bench) layerMetrics(p *metricSet, r *workloadReport) {
	m := &b.m
	units := float64(r.Units)
	vns := float64(m.v1 - m.v0)
	clients := float64(b.w.clients)
	c := m.counter

	// service (all zero unless the tier ran)
	tenant := "svc." + tenantName + "."
	p.set("service.admit_wait_p99_ns", float64(b.tierSnap.Histograms[tenant+"admit_wait_ns"].P99), b.tierSnap.Histograms[tenant+"admit_wait_ns"].Count)
	p.set("service.latency_p99_ns", float64(b.tierSnap.Histograms[tenant+"latency_ns"].P99), b.tierSnap.Histograms[tenant+"latency_ns"].Count)
	p.set("service.throttled", float64(b.tierSnap.Counters[tenant+"throttled"]), 1)
	var selfHost int64
	for _, rec := range b.measured {
		selfHost += rec.selfHost
	}
	p.set("service.self_host_ns_per_op", ratio(float64(selfHost), units), r.Units)

	// shard: max/mean of per-shard ops (1 on a single shard)
	skew := 1.0
	if b.w.lambda > 1 {
		var total, most float64
		for i := 0; i < b.db.Lambda(); i++ {
			pre := fmt.Sprintf("shard%d.", i)
			n := c(pre+"writes") + c(pre+"reads")
			total += n
			most = math.Max(most, n)
		}
		skew = ratio(most, total/float64(b.db.Lambda()))
	}
	p.set("shard.ops_skew", skew, 1)

	// engine
	reads := c("engine.reads")
	p.set("engine.stall_share", ratio(c("engine.stall.time_ns"), clients*vns), 1)
	p.set("engine.stall_l0_ns", c("engine.stall.l0_time_ns"), 1)
	p.set("engine.stall_imm_ns", c("engine.stall.imm_time_ns"), 1)
	p.set("engine.stalls", c("engine.stalls"), 1)
	p.set("engine.memtable_switches", c("engine.memtable.switches"), 1)
	p.set("engine.memtable_switch_contended", c("engine.memtable.switch_contended"), 1)
	p.set("engine.read_memtable_hit_share", ratio(c("engine.read.memtable_hits")+c("engine.read.immtable_hits"), reads), int64(reads))
	p.set("engine.table_fetches_per_read", ratio(c("engine.read.table_fetches"), reads), int64(reads))
	p.set("engine.table_fetch_bytes_per_read", ratio(c("engine.read.table_fetch_bytes"), reads), int64(reads))
	p.set("bloom.negatives_per_read", ratio(c("engine.read.bloom_negatives"), reads), int64(reads))

	// cache
	hits, misses := c("cache.hits"), c("cache.misses")
	p.set("cache.hit_rate", ratio(hits, hits+misses), int64(hits+misses))
	p.set("cache.neg_hits", c("cache.neg_hits"), 1)
	p.set("cache.fills", c("cache.fills"), 1)
	p.set("cache.evictions", c("cache.evictions"), 1)
	p.set("cache.invalidations", c("cache.invalidations"), 1)
	p.set("cache.bytes", m.gauge("cache.bytes"), 1)

	// readahead
	prefetched := c("scan.bytes_prefetched")
	scanned := 0.0
	if b.w.entries {
		scanned = units
	}
	p.set("scan.bytes_prefetched_per_entry", ratio(prefetched, scanned), int64(scanned))
	p.set("scan.waste_share", ratio(c("scan.bytes_wasted"), prefetched), 1)
	p.set("scan.stall_share", ratio(c("scan.stall_ns"), clients*vns), 1)

	// wal
	writes := c("engine.writes")
	p.set("wal.records_per_doorbell", ratio(c("wal.appends"), c("wal.doorbells")), int64(c("wal.doorbells")))
	p.set("wal.append_bytes_per_write", ratio(c("wal.append_bytes"), writes), int64(writes))
	p.set("wal.ring_stalls", c("wal.ring_stalls"), 1)
	p.set("wal.truncations", c("wal.truncations"), 1)

	// flush
	fl := m.histDelta("engine.flush.latency_ns")
	p.set("flush.count", c("engine.flushes"), 1)
	p.set("flush.bytes", c("engine.flush.bytes"), 1)
	p.set("flush.latency_p50_ns", float64(fl.Quantile(0.50)), fl.Count)
	p.set("flush.latency_p99_ns", float64(fl.Quantile(0.99)), fl.Count)
	p.set("flush.reap_waits", c("flush.reap_waits"), 1)
	p.set("flush.buffers_allocated", c("flush.buffers_allocated"), 1)

	// compactor / memnode
	userBytes := writes * entrySize
	p.set("compaction.write_amp", ratio(c("engine.flush.bytes")+c("engine.compaction.bytes_out"), userBytes), 1)
	p.set("compaction.bytes_in", c("engine.compaction.bytes_in"), 1)
	p.set("compaction.remote", c("engine.compaction.remote"), 1)
	p.set("compaction.local", c("engine.compaction.local"), 1)
	p.set("compaction.fallback", c("compaction.fallback"), 1)
	p.set("compaction.time_ns", c("engine.compaction.time_ns"), 1)
	p.set("memnode.cpu_util", m.memnodeUtil, 1)
	p.set("compute.cpu_util", m.computeUtil, 1)
	p.set("memnode.jobs_deduped", c("memnode.jobs.deduped"), 1)
	p.set("memnode.jobs_canceled", c("memnode.jobs.canceled"), 1)
	p.set("gc.remote_free_rpcs", c("engine.gc.remote_free_rpcs"), 1)
	p.set("gc.tables_freed", c("engine.gc.tables_freed"), 1)

	// rdma
	fromBytes := float64(m.fromMem1[0] - m.fromMem0[0])
	p.set("rdma.to_mem_bytes", float64(m.toMem1[0]-m.toMem0[0]), 1)
	p.set("rdma.to_mem_ops", float64(m.toMem1[1]-m.toMem0[1]), 1)
	p.set("rdma.from_mem_bytes", fromBytes, 1)
	p.set("rdma.from_mem_ops", float64(m.fromMem1[1]-m.fromMem0[1]), 1)
	p.set("rdma.link_util_from_mem", ratio(fromBytes, dlsm.SingleNodeConfig().Link.Bandwidth*vns/1e9), 1)
	p.set("rpc.retries", c("rpc.retries"), 1)
	p.set("rpc.timeouts", c("rpc.timeouts"), 1)

	// host
	wall := float64(r.MeasureWallNS)
	p.set("host.wall_ns_per_op", ratio(wall, units), r.Units)
	p.set("host.user_ns_per_op", ratio(float64(m.h1.user-m.h0.user), units), r.Units)
	p.set("host.sys_ns_per_op", ratio(float64(m.h1.sys-m.h0.sys), units), r.Units)
	p.set("host.gc_cpu_share", ratio(m.h1.gcCPU-m.h0.gcCPU, m.h1.totalCPU-m.h0.totalCPU), 1)
	p.set("host.goroutines_peak", float64(m.goroutinesPeak), 1)
	p.set("host.vol_ctx_switches_per_op", ratio(float64(m.h1.volCtx-m.h0.volCtx), units), r.Units)
	overhead := 0.0
	if b.cfg.untracedWallNS > 0 {
		overhead = wall/float64(b.cfg.untracedWallNS) - 1
	}
	p.set("host.tracing_overhead_share", overhead, 1)
}

// contractLine is the runner contract's result object: the last line a
// single-workload run prints on standard output. A percentile the run was
// too small to support stays null; at the contract's size there is none.
func (r *workloadReport) contractLine() []byte {
	type val struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	list := r.EndToEnd
	if r.Traced {
		list = r.PerLayer
	}
	vals := map[string]val{}
	for _, m := range list {
		if r.Traced || contractMetric(m.Name) {
			vals[m.Name] = val{m.Value, m.Unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, vals})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return out
}

// writeTable prints every metric by name with its unit.
func (r *workloadReport) writeTable(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, scale %g): %d units, %d attempted, %d failed\n",
		r.Workload, pass, r.Seed, r.Scale, r.Units, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range append(append([]metric{}, r.EndToEnd...), r.PerLayer...) {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\tn=%d\n", m.Name, fmtValue(m.Value), m.Unit, m.Clock, m.Samples)
	}
	if !r.Traced {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\tn=%d\n", opFailShare.Name, ratio(float64(r.Failed), float64(r.Attempted)), opFailShare.Unit, r.Attempted)
	}
	tw.Flush()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
