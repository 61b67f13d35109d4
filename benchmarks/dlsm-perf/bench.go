package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dlsm"
	"dlsm/internal/telemetry"
)

// runCfg is one workload run.
type runCfg struct {
	workload string
	seed     int64
	scale    float64
	trace    bool
	// untracedWallNS is the measured-phase wall time of the untraced run of
	// the same workload, seed and scale; a traced run needs it for
	// host.tracing_overhead_share.
	untracedWallNS int64
	outDir         string // where a traced run writes its Chrome trace
	setupOnly      bool   // stop after set-up and report only setup_s
	verbose        bool   // log every phase as it ends
	// regionBytes overrides the size of each memory-node region (0 = the
	// 1 GiB default). Only the smoke test sets it: a process that deploys
	// repeatedly re-zeroes the regions' recycled address space, 1.2 s per
	// 2 GiB deployment.
	regionBytes int64
}

// bench is the state of one run.
type bench struct {
	cfg runCfg
	w   *workload
	d   *dlsm.Deployment
	db  *dlsm.DB
	tr  *tracer // nil when untraced

	ops       int // measured calls after scaling
	preloaded int

	measured []*clientRec
	tierSnap telemetry.Snapshot // ycsb_a_svc: the tier's svc.* metrics
	liveKeys int64

	attempted, failed int64
	phases            []span
	m                 measurement
}

// phaseSpan is an open harness phase.
type phaseSpan struct {
	b  *bench
	sp span
}

// phase opens one of the bench.* spans. Phases are recorded traced or not:
// setup_s is their host time.
func (b *bench) phase(name string) *phaseSpan {
	sp := span{Name: name, Client: -1, H0: hostNow()}
	if b.d != nil {
		sp.V0 = int64(b.d.Env.Now())
	}
	if b.tr != nil {
		sp.ID = b.tr.nextID()
	}
	return &phaseSpan{b, sp}
}

func (p *phaseSpan) done() {
	p.sp.H1 = hostNow()
	if p.b.d != nil {
		p.sp.V1 = int64(p.b.d.Env.Now())
	}
	p.b.phases = append(p.b.phases, p.sp)
	if p.b.cfg.verbose {
		logf("%-14s host %8.3f s  virtual %10.3f ms  VmHWM %5d MiB", p.sp.Name,
			float64(p.sp.H1-p.sp.H0)/1e9, float64(p.sp.V1-p.sp.V0)/1e6, vmHWM()>>20)
	}
}

func (b *bench) phaseHost(names ...string) int64 {
	var ns int64
	for _, p := range b.phases {
		for _, n := range names {
			if p.Name == n {
				ns += p.H1 - p.H0
			}
		}
	}
	return ns
}

// absorb folds unmeasured clients' accounting (preload, verify) into the
// run's totals.
func (b *bench) absorb(recs []*clientRec) {
	for _, r := range recs {
		b.attempted += r.attempted
		b.failed += r.failed
	}
}

// hostCounters is what the host clock side reads at a phase edge.
type hostCounters struct {
	wall       int64
	user, sys  int64
	minflt     int64
	volCtx     int64
	allocBytes uint64
	mallocs    uint64
	gcCPU      float64
	totalCPU   float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(cpuSamples)
	return hostCounters{
		wall:       hostNow(),
		user:       ru.Utime.Nano(),
		sys:        ru.Stime.Nano(),
		minflt:     ru.Minflt,
		volCtx:     ru.Nvcsw,
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCPU:      cpuSamples[0].Value.Float64(),
		totalCPU:   cpuSamples[1].Value.Float64(),
	}
}

// measurement is the before/after state of the measured phase.
type measurement struct {
	v0, v1             int64 // virtual ns
	h0, h1             hostCounters
	toMem0, toMem1     [2]int64 // bytes, ops compute -> memory
	fromMem0, fromMem1 [2]int64
	db0, db1           telemetry.Snapshot // engine + fabric registries
	computeUtil        float64
	memnodeUtil        float64
	spaceUsed          int64
	goroutinesPeak     int64
}

func (b *bench) linkStats() (to, from [2]int64) {
	cn, mn := b.d.Compute[0], b.d.Servers[0].Node()
	to[0], to[1] = b.d.Fabric.LinkStats(cn, mn)
	from[0], from[1] = b.d.Fabric.LinkStats(mn, cn)
	return to, from
}

func (b *bench) snapshot() telemetry.Snapshot {
	return telemetry.Merge(b.db.TelemetrySnapshot(), b.d.Fabric.Telemetry().Snapshot())
}

// spaceUsed is the remote-memory footprint. It asks the servers, not
// DB.SpaceUsed: that sums per shard and counts a shared memory node's
// self-controlled region once per shard (4x on ycsb_a_svc). At lambda = 1
// the two agree.
func (b *bench) spaceUsed() int64 {
	var n int64
	for _, s := range b.d.Servers {
		n += s.ComputeUsed() + s.SelfUsed() + s.FSUsed()
	}
	return n
}

// runMeasured brackets the workload's measured phase with the counters of
// both clocks.
func (b *bench) runMeasured() {
	m := &b.m
	cn, mn := b.d.Compute[0], b.d.Servers[0].Node()
	ph := b.phase("bench.measure")
	guard.resetGoroutinePeak()
	m.db0 = b.snapshot()
	m.toMem0, m.fromMem0 = b.linkStats()
	cn.CPU.ResetStats()
	mn.CPU.ResetStats()
	m.v0 = int64(b.d.Env.Now())
	m.h0 = readHost()

	b.w.measure(b)

	m.h1 = readHost()
	m.v1 = int64(b.d.Env.Now())
	m.computeUtil = cn.CPU.Utilization()
	m.memnodeUtil = mn.CPU.Utilization()
	m.toMem1, m.fromMem1 = b.linkStats()
	m.db1 = b.snapshot()
	m.spaceUsed = b.spaceUsed()
	m.goroutinesPeak = guard.goroutinePeak()
	ph.done()
	b.absorb(b.measured)
}

// run executes the whole workload and returns its report.
func run(cfg runCfg) (*workloadReport, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale <= 0 {
		return nil, fmt.Errorf("scale must be positive, got %v", cfg.scale)
	}
	b := &bench{cfg: cfg, w: w}
	b.ops = scaled(w.ops, cfg.scale, w.clients)
	if w.preload > 0 {
		b.preloaded = scaled(w.preload, cfg.scale, preloadLoaders)
	}

	ph := b.phase("bench.deploy")
	dc := cfg.deployConfig()
	if w.deploy != nil {
		w.deploy(&dc)
	}
	b.d = newDeployment(dc)
	if cfg.trace {
		b.tr = newTracer(b.d.Env)
	}
	var openErr error
	b.d.Run(func() {
		opts := dlsm.DefaultOptions()
		if w.tune != nil {
			w.tune(&opts, cfg.scale)
		}
		place := dlsm.Placement{Lambda: w.lambda}
		if w.lambda > 1 {
			place.Boundaries = dlsm.UniformBoundaries(w.lambda, b.preloaded, makeKey)
		}
		b.db, openErr = dlsm.OpenDB(b.d, dlsm.RolePrimary, place, opts)
		ph.done()
		if openErr != nil {
			return
		}
		b.preload(b.preloaded)
		if !cfg.setupOnly {
			b.runMeasured()
			ph := b.phase("bench.verify")
			if w.verify != nil {
				w.verify(b)
			}
			ph.done()
		}
		ph := b.phase("bench.close")
		b.db.Close()
		ph.done()
	})
	if openErr != nil {
		return nil, fmt.Errorf("open: %w", openErr)
	}
	b.d.Close()
	return b.report()
}

// deployConfig is the paper's single-node testbed.
func (cfg runCfg) deployConfig() dlsm.DeploymentConfig {
	dc := dlsm.SingleNodeConfig()
	if cfg.regionBytes > 0 {
		dc.MemNode.ComputeRegionSize, dc.MemNode.SelfRegionSize = cfg.regionBytes, cfg.regionBytes
	}
	return dc
}

// heapPlugs keeps newDeployment's plugs allocated for the life of the process.
var heapPlugs [][]byte

// newDeployment is dlsm.NewDeployment behind a heap plug. A memory node
// registers its regions as one 2 GiB make([]byte). The Go runtime zeroes a
// large allocation in full when its first page lies in address space the
// heap has used before, and skips that for memory fresh from the OS. Which
// of the two happens depends on whether the last few pages below the heap's
// top happen to be free at that instant (a freed goroutine stack is enough),
// so the same binary sets up in 3 ms or in 1.2 s, and peaks 2 GiB of
// resident set apart, from one run to the next. An 8 MiB allocation made
// just before, and held, takes those pages, so the region starts on fresh
// memory every time. (A later change that registers memory lazily makes the
// plug pointless but harmless.)
func newDeployment(dc dlsm.DeploymentConfig) *dlsm.Deployment {
	heapPlugs = append(heapPlugs, make([]byte, 8<<20))
	return dlsm.NewDeployment(dc)
}

// percentile returns the q-quantile of sorted and whether the samples
// support it: a tail percentile needs at least ten samples beyond it (the
// choosing-metrics rule); a median is always reported.
func percentile(sorted []int64, q float64) (v int64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return sorted[i], n-1-i >= 10 || q <= 0.5
}

func hostNow() int64 { return time.Since(processStart).Nanoseconds() }

var processStart = time.Now()

// memGuard samples the process's resident-set high-water mark and the
// goroutine count from a host goroutine. A scan-heavy run that outgrows
// memLimit is reported as a failed run instead of being OOM-killed with
// no result (16 000 scanrandom scans do that on a 16 GB box).
type memGuard struct {
	peakGoroutines atomic.Int64
	stop           chan struct{}
	done           chan struct{}
}

const memLimitBytes = 10 << 30

var guard memGuard

// start launches the sampler; over calls back when VmHWM passes the limit.
func (g *memGuard) start(over func(hwm int64)) {
	g.stop, g.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(g.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				n := int64(runtime.NumGoroutine())
				if n > g.peakGoroutines.Load() {
					g.peakGoroutines.Store(n)
				}
				if hwm := vmHWM(); hwm > memLimitBytes {
					over(hwm)
					return
				}
			}
		}
	}()
}

func (g *memGuard) halt() {
	if g.stop != nil {
		close(g.stop)
		<-g.done
		g.stop = nil
	}
}

func (g *memGuard) resetGoroutinePeak() { g.peakGoroutines.Store(int64(runtime.NumGoroutine())) }
func (g *memGuard) goroutinePeak() int64 {
	return max(g.peakGoroutines.Load(), int64(runtime.NumGoroutine()))
}

// vmHWM reads the peak resident set size in bytes (0 where /proc is absent).
func vmHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

func sortedLatencies(recs []*clientRec) []int64 {
	n := 0
	for _, r := range recs {
		n += len(r.lat)
	}
	all := make([]int64, 0, n)
	for _, r := range recs {
		all = append(all, r.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}
