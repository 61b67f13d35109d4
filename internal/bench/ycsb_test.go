package bench

import (
	"bytes"
	"testing"

	"dlsm/internal/service"
)

// TestServiceReadSeqMatchesDirect is the satellite-6 equivalence gate: the
// service tier with a single unlimited, think-free tenant must be
// indistinguishable from driving the harness directly — same virtual
// elapsed time, same op count, same network bytes, byte-identical
// formatted throughput as the -fig 11 table prints it. Any divergence
// means the tier added virtual-time events of its own.
func TestServiceReadSeqMatchesDirect(t *testing.T) {
	cfg := Config{System: DLSM, Threads: 2, N: 10_000, KeyRange: 10_000}
	direct := ReadSeq(cfg)
	svc, reports := ServiceReadSeq(cfg)

	if svc.Ops != direct.Ops {
		t.Errorf("ops: service %d, direct %d", svc.Ops, direct.Ops)
	}
	if svc.Elapsed != direct.Elapsed {
		t.Errorf("virtual elapsed: service %v, direct %v", svc.Elapsed, direct.Elapsed)
	}
	if got, want := fmtTput(svc.Throughput), fmtTput(direct.Throughput); got != want {
		t.Errorf("formatted throughput: service %s, direct %s", got, want)
	}
	if svc.NetToMem != direct.NetToMem || svc.NetFromMem != direct.NetFromMem {
		t.Errorf("net bytes: service %d/%d, direct %d/%d",
			svc.NetToMem, svc.NetFromMem, direct.NetToMem, direct.NetFromMem)
	}
	if svc.SpaceUsed != direct.SpaceUsed {
		t.Errorf("space used: service %d, direct %d", svc.SpaceUsed, direct.SpaceUsed)
	}
	if len(reports) != 1 {
		t.Fatalf("reports: %d", len(reports))
	}
	r := reports[0]
	if r.Throttled != 0 || r.Issued != int64(cfg.Threads) || r.Units != direct.Ops {
		t.Errorf("solo tenant report off: %+v", r)
	}
}

// smokeCfg is the mixed-tenant scenario at test scale: the figure's client
// counts (8 frontend, 16 analytics), a fifth of its operations.
func smokeCfg() Config {
	return Config{System: DLSM, Threads: 16, N: 20_000, KeyRange: 20_000, Lambda: 4}.Normalize()
}

// TestMixedTenantAdmissionImprovesP99 is the acceptance headline at smoke
// scale: rate-limiting the scan-heavy analytics tenant must strictly
// improve the latency-sensitive frontend tenant's p99, and the analytics
// tenant must actually feel the limit.
//
// Percentiles come from factor-2 histogram buckets, so "strictly" means a
// whole bucket, which takes a saturated link. While scans abandoned most
// of what they fetched, four scanning clients saturated it; since the
// readahead bounds the waste they no longer do (p99 stayed in the 6.144 us
// bucket, only p95 moved), so the test runs the tenant mix at the figure's
// own client count, where sixteen scanners contend again, instead of
// weakening the comparison.
func TestMixedTenantAdmissionImprovesP99(t *testing.T) {
	cfg := smokeCfg()
	_, open := RunService(cfg, mixedTenants(cfg, 0), true)
	openRate := open[1].Throughput
	_, limited := RunService(cfg, mixedTenants(cfg, openRate/4), true)

	if limited[1].Throttled == 0 {
		t.Error("analytics tenant was never throttled — limit had no teeth")
	}
	if limited[1].Throughput >= open[1].Throughput {
		t.Errorf("analytics throughput did not drop: %.0f/s -> %.0f/s",
			open[1].Throughput, limited[1].Throughput)
	}
	if limited[0].P99 >= open[0].P99 {
		t.Errorf("frontend p99 did not strictly improve: %v (open) -> %v (limited)",
			open[0].P99, limited[0].P99)
	}
	t.Logf("frontend p99 %v -> %v; analytics %.0f/s -> %.0f/s (throttled %d)",
		open[0].P99, limited[0].P99, open[1].Throughput, limited[1].Throughput,
		limited[1].Throttled)
}

// TestRunServiceDeterministic pins the end-to-end regression contract:
// the same seeded multi-tenant scenario over the full deployment renders
// byte-identical SLO reports on every run.
func TestRunServiceDeterministic(t *testing.T) {
	cfg := Config{System: DLSM, Threads: 4, N: 8_000, KeyRange: 8_000, Lambda: 2}.Normalize()
	render := func() string {
		_, reports := RunService(cfg, mixedTenants(cfg, 20_000), true)
		var buf bytes.Buffer
		service.WriteReports(&buf, reports)
		return buf.String()
	}
	a := render()
	b := render()
	if a != b {
		t.Fatalf("RunService not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}
