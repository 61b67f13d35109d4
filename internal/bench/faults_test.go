package bench

import "testing"

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
