package bench

import (
	"testing"

	"dlsm/internal/engine"
)

// TestFigWALOrdering pins what `make wal` exists to show, at a size tier-1
// can afford. Virtual time is deterministic, so the absolute floor on the
// sync point is a sound pin (4.15M ops/s with the pipelined commit path,
// 2.04M with the stop-and-wait one it replaced); ratios to `off` are not —
// `off` is not yet stall-bound at 20 000 puts.
func TestFigWALOrdering(t *testing.T) {
	const n, threads = 20_000, 16
	tput := map[string]float64{}
	var sync Result
	for _, p := range FigWAL(n, threads).Series[0].Points {
		tput[p.X] = p.R.Throughput
		if p.X == "sync" {
			sync = p.R
		}
	}
	if tput["sync"] <= tput["sync+perwrite"] {
		t.Errorf("sync %.0f ops/s does not beat sync+perwrite %.0f", tput["sync"], tput["sync+perwrite"])
	}
	if tput["async"] < 0.9*tput["off"] {
		t.Errorf("async %.0f ops/s is below 0.9 x off (%.0f)", tput["async"], tput["off"])
	}
	if tput["sync"] < 3.0e6 {
		t.Errorf("sync %.0f ops/s, want >= 3.0M", tput["sync"])
	}

	// Same seed, same timeline: throughput and doorbell count repeat exactly.
	again := FillRandom(Config{System: DLSM, Threads: threads, N: n, Durability: engine.DurabilitySync})
	d1, d2 := sync.Metrics.Counters["wal.doorbells"], again.Metrics.Counters["wal.doorbells"]
	if again.Throughput != sync.Throughput || d1 != d2 || d1 == 0 {
		t.Errorf("sync point diverged: %.3f ops/s with %d doorbells, then %.3f with %d",
			sync.Throughput, d1, again.Throughput, d2)
	}
}
