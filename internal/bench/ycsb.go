package bench

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"time"

	"dlsm/internal/service"
	"dlsm/internal/telemetry"
)

// svcDB adapts the bench harness's system-under-test to the service
// tier's backend interface.
type svcDB struct{ db kvDB }

func (d svcDB) NewSession() service.Session { return svcSession{s: d.db.NewSession()} }

type svcSession struct{ s kvSession }

func (s svcSession) Put(k, v []byte) error                     { s.s.Put(k, v); return nil }
func (s svcSession) Get(k []byte) ([]byte, error)              { return s.s.Get(k) }
func (s svcSession) Scan(st []byte, fn func(k, v []byte) bool) { s.s.Scan(st, fn) }
func (s svcSession) Close()                                    { s.s.Close() }

// RunService runs one service-tier scenario over a deployment built from
// cfg: deploy, open the system, preload cfg.Preload keys (when preload is
// set), settle, then drive the tenants through a service.Tier and collect
// both the harness Result (aggregate units, virtual elapsed, CPU and
// network accounting — the same bookkeeping measure() does) and the
// per-tenant SLO reports. A tenant workload with KeyRange 0 inherits
// cfg.KeyRange.
func RunService(cfg Config, tenants []service.TenantConfig, preload bool) (Result, []service.Report) {
	cfg = cfg.Normalize()
	for i := range tenants {
		if tenants[i].Workload.KeyRange == 0 {
			tenants[i].Workload.KeyRange = cfg.KeyRange
		}
	}
	env, fab, cns, servers := deployment(cfg)
	var res Result
	var reports []service.Report
	env.Run(func() {
		db := openSystem(cfg.System, cfg, cns[0], servers)
		if preload {
			doPreload(env, cfg, db)
			db.Settle()
		}
		mn := servers[0].Node()
		cn := cns[0]
		mn.CPU.ResetStats()
		cn.CPU.ResetStats()
		toMem0, _ := fab.LinkStats(cn, mn)
		fromMem0, _ := fab.LinkStats(mn, cn)

		tier := service.New(env, svcDB{db}, service.Config{
			Seed:    cfg.Seed,
			Key:     cfg.Key,
			Value:   cfg.Value,
			Tenants: tenants,
		})
		start := env.Now()
		reports = tier.Run()
		elapsed := time.Duration(env.Now() - start)

		res.System = cfg.System
		res.Threads = 0
		for _, r := range reports {
			res.Threads += r.Clients
			res.Ops += r.Units
		}
		res.Elapsed = elapsed
		if elapsed > 0 {
			res.Throughput = float64(res.Ops) / elapsed.Seconds()
		}
		res.SpaceUsed = db.SpaceUsed()
		res.RemoteCPUUtil = mn.CPU.Utilization()
		res.ComputeCPUUtil = cn.CPU.Utilization()
		toMem1, _ := fab.LinkStats(cn, mn)
		fromMem1, _ := fab.LinkStats(mn, cn)
		res.NetToMem = toMem1 - toMem0
		res.NetFromMem = fromMem1 - fromMem0

		db.Close()
		res.Metrics = telemetry.Merge(tier.TelemetrySnapshot(), fab.Telemetry().Snapshot())
		if t, ok := db.(interface{ TelemetrySnapshot() telemetry.Snapshot }); ok {
			res.Metrics = telemetry.Merge(t.TelemetrySnapshot(), res.Metrics)
		}
		fab.Close()
	})
	env.Wait()
	debug.FreeOSMemory()
	return res, reports
}

// soloTenant is the single-tenant, no-limit, no-think configuration: the
// service tier degenerated to the direct harness's thread loop.
func soloTenant(name string, w service.Workload, clients, ops int) service.TenantConfig {
	return service.TenantConfig{Name: name, Clients: clients, Ops: ops, Workload: w}
}

// ServiceReadSeq runs the direct harness's readseq workload (every client
// scans the whole database once) through the service tier with a single
// unlimited tenant. With no rate limit and no think time the tier adds no
// virtual-time events, so the result is byte-identical to ReadSeq(cfg) —
// the equivalence a regression test diffs.
func ServiceReadSeq(cfg Config) (Result, []service.Report) {
	cfg = cfg.Normalize()
	return RunService(cfg, []service.TenantConfig{
		// Ops = Clients: each client's budget is exactly one full scan.
		soloTenant("solo", service.ReadSeq(cfg.KeyRange), cfg.Threads, cfg.Threads),
	}, true)
}

// YCSBWorkloads lists the six core workload letters.
var YCSBWorkloads = []byte{'A', 'B', 'C', 'D', 'E', 'F'}

// YCSBResult is everything -fig ycsb produces: the six-workload
// single-tenant matrix and the mixed-tenant admission-control scenario
// (the same two tenants with and without a rate limit on the scan-heavy
// one).
type YCSBResult struct {
	Matrix        *Figure
	MatrixReports map[string]service.Report

	// Mixed scenario: a latency-sensitive YCSB-B tenant ("frontend")
	// beside a scan-heavy YCSB-E tenant ("analytics"), first with no
	// limits, then with analytics rate-limited. Reports are in tenant
	// order: frontend, analytics.
	Open    []service.Report
	Limited []service.Report
}

// mixedTenants builds the two-tenant scenario. limit rate-limits the
// analytics tenant (requests/second of virtual time; 0 = no limits).
func mixedTenants(cfg Config, limit float64) []service.TenantConfig {
	clients := cfg.Threads / 2
	if clients < 1 {
		clients = 1
	}
	frontend := service.TenantConfig{
		Name:     "frontend",
		Clients:  clients,
		Ops:      cfg.N / 2,
		Workload: service.YCSB('B', cfg.KeyRange),
	}
	// The scan tenant has to keep the memnode->compute link busy to be a
	// noisy neighbour at all. YCSB-E's stock 100-entry scans stopped doing
	// that once the default scan path quit fetching a 2 MiB chunk per table
	// per seek, so analytics runs scans of up to 1 000 entries (long enough
	// for every table's window to ramp to reads of tens of KiB that point
	// reads queue behind) from twice the frontend's clients.
	scans := service.YCSB('E', cfg.KeyRange)
	scans.MaxScanLen = 1000
	analytics := service.TenantConfig{
		Name:    "analytics",
		Clients: 2 * clients,
		// ~500 entries a scan: a fiftieth of the frontend's op budget
		// keeps the two tenants' runtimes comparable.
		Ops:      cfg.N / 100,
		Workload: scans,
	}
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

// FigYCSB runs the full YCSB A-F matrix as single unlimited tenants, then
// the mixed-tenant scenario with and without admission control on the
// analytics tenant. The headline: rate-limiting the scan-heavy tenant
// strictly improves the latency-sensitive tenant's p99.
func FigYCSB(n, threads int) *YCSBResult {
	out := &YCSBResult{
		Matrix:        &Figure{Name: "Fig YCSB", Title: "YCSB core workloads (single tenant, no limits)", XLabel: "workload"},
		MatrixReports: map[string]service.Report{},
	}
	s := Series{Label: "dLSM"}
	for _, w := range YCSBWorkloads {
		cfg := Config{System: DLSM, Threads: threads, N: n, KeyRange: n, Lambda: 4}.Normalize()
		wl := service.YCSB(w, cfg.KeyRange)
		r, reps := RunService(cfg, []service.TenantConfig{
			soloTenant("solo", wl, cfg.Threads, cfg.N),
		}, true)
		rep := reps[0]
		out.MatrixReports[wl.Name] = rep
		progress("figycsb %s: %s ops/s (p50=%v p99=%v p999=%v)",
			wl.Name, fmtTput(rep.Throughput), rep.P50, rep.P99, rep.P999)
		s.Points = append(s.Points, Point{X: wl.Name, R: r})
	}
	out.Matrix.Series = append(out.Matrix.Series, s)

	// Mixed-tenant scenario. The limit is derived from the unlimited
	// run's own analytics rate, so the scenario scales with -n: a quarter
	// of the rate the scan tenant reached with no limits.
	cfg := Config{System: DLSM, Threads: threads, N: n, KeyRange: n, Lambda: 4}.Normalize()
	_, out.Open = RunService(cfg, mixedTenants(cfg, 0), true)
	openRate := out.Open[1].Throughput
	_, out.Limited = RunService(cfg, mixedTenants(cfg, openRate/4), true)
	progress("figycsb mixed: frontend p99 %v (open) -> %v (analytics limited to %.0f/s, throttled %d)",
		out.Open[0].P99, out.Limited[0].P99, openRate/4, out.Limited[1].Throttled)
	return out
}

// Print renders the matrix table, the per-workload SLO rows, and the
// mixed-tenant scenario's before/after SLO tables.
func (y *YCSBResult) Print(w io.Writer) {
	y.Matrix.Print(w)
	fmt.Fprintln(w, "\nPer-workload SLOs (single tenant):")
	var names []string
	for name := range y.MatrixReports {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []service.Report
	for _, name := range names {
		r := y.MatrixReports[name]
		r.Tenant = name
		rows = append(rows, r)
	}
	service.WriteReports(w, rows)

	fmt.Fprintln(w, "\nMixed tenants, no limits (frontend = YCSB-B, analytics = YCSB-E):")
	service.WriteReports(w, y.Open)
	fmt.Fprintln(w, "\nMixed tenants, analytics rate-limited:")
	service.WriteReports(w, y.Limited)
	if len(y.Open) == 2 && len(y.Limited) == 2 {
		fmt.Fprintf(w, "\nfrontend p99: %v -> %v (admission control on the scan tenant)\n",
			y.Open[0].P99, y.Limited[0].P99)
	}
}
