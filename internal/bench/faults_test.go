package bench

import (
	"testing"

	"dlsm/internal/engine"
)

func TestFaultScenariosRunToCompletion(t *testing.T) {
	for _, sc := range FaultScenarios {
		r := measure(Config{System: DLSM, Threads: 4, N: smokeN / 3, FaultScenario: sc}, FillRandom)
		if r.Ops < int64(smokeN/3)*9/10 {
			t.Fatalf("%s: ops = %d", sc, r.Ops)
		}
		switch sc {
		case "delay":
			if r.Metrics.Counters["faults.injected"] == 0 {
				t.Errorf("delay: faults.injected = 0")
			}
		case "outage":
			if r.Metrics.Counters["compaction.fallback"] == 0 {
				t.Errorf("outage: compaction.fallback = 0")
			}
			if r.Metrics.Counters["rpc.retries"] == 0 {
				t.Errorf("outage: rpc.retries = 0")
			}
		}
		t.Logf("%-7s %.0f ops/s (fallbacks=%d retries=%d injected=%d)", sc, r.Throughput,
			r.Metrics.Counters["compaction.fallback"],
			r.Metrics.Counters["rpc.retries"],
			r.Metrics.Counters["faults.injected"])
	}
}

// TestFlapFreesAtMostOnce is the reproducer of the memory node's
// double-free panic: a flapping link loses replies to "free" RPCs, the GC
// worker retries, and a re-applied batch freed extents a second time (by
// then often another table's). With a sync log on, flush outputs are
// memnode-created too, so twice the tables go through that RPC. The run
// completes, the retried batches are deduplicated and none is invalid.
func TestFlapFreesAtMostOnce(t *testing.T) {
	r := measure(Config{System: DLSM, Threads: 4, N: smokeN, FaultScenario: "flap",
		Options: func(o *engine.Options) { o.Durability = engine.DurabilitySync }}, FillRandom)
	m := r.Metrics.Counters
	if r.Ops != smokeN || m["memnode.jobs.deduped"] == 0 || m["memnode.invalid_frees"] != 0 {
		t.Errorf("ops = %d of %d, memnode.jobs.deduped = %d (want > 0: the scenario retried nothing), memnode.invalid_frees = %d (want 0)",
			r.Ops, smokeN, m["memnode.jobs.deduped"], m["memnode.invalid_frees"])
	}
	t.Logf("%.0f ops/s (deduped=%d retries=%d near-data flushes=%d of %d)", r.Throughput,
		m["memnode.jobs.deduped"], m["rpc.retries"], m["offload.flushes"], m["engine.flushes"])
}
