package bench

import (
	"strings"
	"testing"
)

// TestFigScanOrdering pins what `make scan` exists to show, at a size
// tier-1 can afford (the default ceiling, the default depth against the
// ablation): pipelining beats the synchronous depth-1 path on full-table
// and on 100-entry scans, and a short scan at the default depth abandons
// at most 40% of what it prefetched (65% before the readahead bounded
// unread bytes by bytes read).
func TestFigScanOrdering(t *testing.T) {
	for _, s := range figScan(10_000, 2, []int{2 << 20}, []int{1, 2}).Series {
		byDepth := map[string]Result{}
		for _, p := range s.Points {
			byDepth[p.X] = p.R
		}
		d1, d2 := byDepth["1"], byDepth["2"]
		if d2.Throughput <= d1.Throughput {
			t.Errorf("%s: depth 2 %.0f entries/s does not beat depth 1 %.0f", s.Label, d2.Throughput, d1.Throughput)
		}
		if !strings.Contains(s.Label, "scanrandom") {
			continue
		}
		c := d2.Metrics.Counters
		prefetched, wasted := c["scan.bytes_prefetched"], c["scan.bytes_wasted"]
		if prefetched == 0 || float64(wasted) > 0.40*float64(prefetched) {
			t.Errorf("%s: depth 2 wasted %d of %d prefetched bytes, want <= 40%%", s.Label, wasted, prefetched)
		}
	}
}
