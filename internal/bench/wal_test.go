package bench

import "testing"

// TestFigWALOrdering pins what `make wal` exists to show, at a size tier-1
// can afford. Virtual time is deterministic, so the absolute floor on the
// sync point is a sound pin (4.15M ops/s with the pipelined commit path,
// 2.04M with the stop-and-wait one it replaced); ratios to `off` are not —
// `off` is not yet stall-bound at 20 000 puts. The orderings need writers
// to pipeline, so they are pinned here at 16 threads and are not the
// figure's check, which has to hold at any -threads.
func TestFigWALOrdering(t *testing.T) {
	f := figure(t, "wal")
	s := &f.Measure(f.Grid(20_000, []int{16}), nil)[0]
	tput := func(mode string) float64 { return s.Cell(mode).R[0].Throughput }
	if tput("sync") <= tput("sync+perwrite") {
		t.Errorf("sync %.0f ops/s does not beat sync+perwrite %.0f", tput("sync"), tput("sync+perwrite"))
	}
	if tput("async") < 0.9*tput("off") {
		t.Errorf("async %.0f ops/s is below 0.9 x off (%.0f)", tput("async"), tput("off"))
	}
	if tput("sync") < 3.0e6 {
		t.Errorf("sync %.0f ops/s, want >= 3.0M", tput("sync"))
	}

	// Same seed, same timeline: throughput and doorbell count repeat exactly.
	sync := s.Cell("sync")
	again := Run(sync.Point)
	d1, d2 := sync.R[0].Metrics.Counters["wal.doorbells"], again.Metrics.Counters["wal.doorbells"]
	if again.Throughput != sync.R[0].Throughput || d1 != d2 || d1 == 0 {
		t.Errorf("sync point diverged: %.3f ops/s with %d doorbells, then %.3f with %d",
			sync.R[0].Throughput, d1, again.Throughput, d2)
	}
}
