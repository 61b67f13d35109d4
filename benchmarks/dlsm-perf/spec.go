package main

import "encoding/json"

// The normative names of the benchmark: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repo root is generated from
// these tables (`dlsm-perf -spec`) and the smoke test fails when the two
// disagree, so a name is defined in exactly one place.

// Clocks a metric is read from.
const (
	clockVirtual = "virtual" // the modelled hardware; repeats exactly per seed
	clockHost    = "host"    // the machine running the simulator
)

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression
	// (BENCHMARK.json "bound"); 0 keeps the metric out of BENCHMARK.json, see
	// contractMetric. The runner's driver takes medians over runs with
	// different seeds, so each bound is at least three times the widest
	// seed-to-seed spread (interquartile range over median, ten seeds) any
	// workload showed when the benchmark was defined; see the README. The
	// exception is setup_s: host time, as noisy as its bound, which is the
	// widest the contract allows. Per-layer metrics have none.
	Bound float64
	// Repeat is the tolerance of the same-seed determinism check
	// (-check): two fresh processes on one seed must agree within it.
	// 0 exempts the metric (host time).
	Repeat float64
}

// absLatencyFloorNS is the absolute slack of the same-seed latency
// comparison: virtual latencies below it (a memtable hit is a few hundred
// ns) would turn a 1 ns change into a large ratio.
const absLatencyFloorNS = 100

// Units: "vns" is nanoseconds of the virtual clock, kept apart from host
// "ns"/"s" so no reader mistakes modelled time for measured time.
var endToEnd = []metricDef{
	{"vtput_ops_s", "ops/s", clockVirtual, "higher", 0.10, 0.005},
	{"vlat_p50_ns", "vns", clockVirtual, "lower", 0.15, 0.005},
	{"vlat_p99_ns", "vns", clockVirtual, "lower", 0.25, 0.005},
	{"vlat_p999_ns", "vns", clockVirtual, "lower", 0, 0.005},
	{"wire_bytes_per_op", "B/op", clockVirtual, "lower", 0.10, 0.005},
	{"compute_cpu_ns_per_op", "vns/op", clockVirtual, "lower", 0.02, 0.005},
	{"memnode_cpu_ns_per_op", "vns/op", clockVirtual, "lower", 0, 0.005},
	{"space_amp", "ratio", clockVirtual, "lower", 0.10, 0.005},
	{"host_alloc_bytes_per_op", "B/op", clockHost, "lower", 0.10, 0.05},
	{"host_mallocs_per_op", "1/op", clockHost, "lower", 0.05, 0.05},
	{"host_minor_faults_per_op", "1/op", clockHost, "lower", 0.10, 0.05},
	{"host_peak_rss_mb", "MB", clockHost, "lower", 0.10, 0.10},
	{"setup_s", "s", clockHost, "lower", 0.25, 0},
}

// contractMetric reports whether an end-to-end metric is part of the runner
// contract (BENCHMARK.json and the result line). A metric there is bounded
// as a share of its median on every workload, so every workload must yield
// it and it must never be 0. Two are therefore reported by this tool only:
// vlat_p999_ns, which the two scan workloads cannot support (a percentile
// needs ten samples beyond it; 11 000 scans do not fit in memory), and
// memnode_cpu_ns_per_op, which is 0 on the three read-only workloads
// (one-sided reads use no memory-node CPU; memnode.cpu_util carries it in
// the per-layer table).
func contractMetric(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound > 0
		}
	}
	return false
}

// opFailShare is likewise reported by the tool only: it is 0 on every
// healthy run, and the contract carries it as failed/attempted.
var opFailShare = metricDef{"op_fail_share", "ratio", clockVirtual, "lower", 0, 0}

func layer(name, unit, clock, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: clock, Better: better}
}

var perLayer = []metricDef{
	// service
	layer("service.admit_wait_p99_ns", "vns", clockVirtual, "lower"),
	layer("service.latency_p99_ns", "vns", clockVirtual, "lower"),
	layer("service.throttled", "count", clockVirtual, "lower"),
	layer("service.self_host_ns_per_op", "ns/op", clockHost, "lower"),
	// shard
	layer("shard.ops_skew", "ratio", clockVirtual, "lower"),
	layer("shard.route_host_ns", "ns", clockHost, "lower"),
	// engine
	layer("engine.stall_share", "ratio", clockVirtual, "lower"),
	layer("engine.stall_l0_ns", "vns", clockVirtual, "lower"),
	layer("engine.stall_imm_ns", "vns", clockVirtual, "lower"),
	layer("engine.stalls", "count", clockVirtual, "lower"),
	layer("engine.memtable_switches", "count", clockVirtual, "lower"),
	layer("engine.memtable_switch_contended", "count", clockVirtual, "lower"),
	layer("engine.read_memtable_hit_share", "ratio", clockVirtual, "higher"),
	layer("engine.table_fetches_per_read", "1/op", clockVirtual, "lower"),
	layer("engine.table_fetch_bytes_per_read", "B/op", clockVirtual, "lower"),
	// memtable
	layer("memtable.add_host_ns", "ns", clockHost, "lower"),
	layer("memtable.get_host_ns", "ns", clockHost, "lower"),
	// bloom
	layer("bloom.negatives_per_read", "1/op", clockVirtual, "higher"),
	layer("bloom.fp_rate", "ratio", clockVirtual, "lower"),
	layer("bloom.probe_host_ns", "ns", clockHost, "lower"),
	// sstable
	layer("sstable.index_bytes_per_key", "B", clockVirtual, "lower"),
	layer("sstable.index_seek_host_ns", "ns", clockHost, "lower"),
	// cache
	layer("cache.hit_rate", "ratio", clockVirtual, "higher"),
	layer("cache.neg_hits", "count", clockVirtual, "higher"),
	layer("cache.fills", "count", clockVirtual, "lower"),
	layer("cache.evictions", "count", clockVirtual, "lower"),
	layer("cache.invalidations", "count", clockVirtual, "lower"),
	layer("cache.bytes", "B", clockVirtual, "lower"),
	layer("cache.get_host_ns", "ns", clockHost, "lower"),
	// readahead
	layer("scan.bytes_prefetched_per_entry", "B", clockVirtual, "lower"),
	layer("scan.waste_share", "ratio", clockVirtual, "lower"),
	layer("scan.stall_share", "ratio", clockVirtual, "lower"),
	// wal
	layer("wal.records_per_doorbell", "ratio", clockVirtual, "higher"),
	layer("wal.append_bytes_per_write", "B/op", clockVirtual, "lower"),
	layer("wal.ring_stalls", "count", clockVirtual, "lower"),
	layer("wal.truncations", "count", clockVirtual, "lower"),
	// flush
	layer("flush.count", "count", clockVirtual, "lower"),
	layer("flush.bytes", "B", clockVirtual, "lower"),
	layer("flush.latency_p50_ns", "vns", clockVirtual, "lower"),
	layer("flush.latency_p99_ns", "vns", clockVirtual, "lower"),
	layer("flush.reap_waits", "count", clockVirtual, "lower"),
	layer("flush.buffers_allocated", "count", clockVirtual, "lower"),
	// compactor / memnode
	layer("compaction.write_amp", "ratio", clockVirtual, "lower"),
	layer("compaction.bytes_in", "B", clockVirtual, "lower"),
	layer("compaction.remote", "count", clockVirtual, "lower"),
	layer("compaction.local", "count", clockVirtual, "lower"),
	layer("compaction.fallback", "count", clockVirtual, "lower"),
	layer("compaction.time_ns", "vns", clockVirtual, "lower"),
	layer("memnode.cpu_util", "ratio", clockVirtual, "lower"),
	layer("compute.cpu_util", "ratio", clockVirtual, "lower"),
	layer("memnode.jobs_deduped", "count", clockVirtual, "lower"),
	layer("memnode.jobs_canceled", "count", clockVirtual, "lower"),
	layer("gc.remote_free_rpcs", "count", clockVirtual, "lower"),
	layer("gc.tables_freed", "count", clockVirtual, "lower"),
	// rdma
	layer("rdma.to_mem_bytes", "B", clockVirtual, "lower"),
	layer("rdma.to_mem_ops", "count", clockVirtual, "lower"),
	layer("rdma.from_mem_bytes", "B", clockVirtual, "lower"),
	layer("rdma.from_mem_ops", "count", clockVirtual, "lower"),
	layer("rdma.link_util_from_mem", "ratio", clockVirtual, "lower"),
	layer("rdma.read_420B_virtual_ns", "vns", clockVirtual, "lower"),
	layer("rdma.read_2MiB_virtual_ns", "vns", clockVirtual, "lower"),
	layer("rdma.read_420B_host_ns", "ns", clockHost, "lower"),
	// rpc
	layer("rpc.null_call_virtual_ns", "vns", clockVirtual, "lower"),
	layer("rpc.null_call_host_ns", "ns", clockHost, "lower"),
	layer("rpc.retries", "count", clockVirtual, "lower"),
	layer("rpc.timeouts", "count", clockVirtual, "lower"),
	// sim kernel
	layer("sim.handoff_host_ns", "ns", clockHost, "lower"),
	layer("sim.sleep_host_ns", "ns", clockHost, "lower"),
	layer("sim.mutex_host_ns", "ns", clockHost, "lower"),
	layer("sim.cpu_use_host_ns", "ns", clockHost, "lower"),
	// host
	layer("host.wall_ns_per_op", "ns/op", clockHost, "lower"),
	layer("host.user_ns_per_op", "ns/op", clockHost, "lower"),
	layer("host.sys_ns_per_op", "ns/op", clockHost, "lower"),
	layer("host.gc_cpu_share", "ratio", clockHost, "lower"),
	layer("host.goroutines_peak", "count", clockHost, "lower"),
	layer("host.vol_ctx_switches_per_op", "1/op", clockHost, "lower"),
	layer("host.tracing_overhead_share", "ratio", clockHost, "lower"),
}

// contractRunSeconds is BENCHMARK.json's run_seconds: at -scale 1 the
// measured phase of the longest workload takes about this long on the
// 2-core reference box. benchmarks/run.py passes -scale seconds/run_seconds.
const contractRunSeconds = 5

// benchmarkJSON renders the BENCHMARK.json document.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"python3", "benchmarks/run.py"},
		Paths:      []string{"benchmarks"},
		RunSeconds: contractRunSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		if !contractMetric(m.Name) {
			continue
		}
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return append(b, '\n')
}
