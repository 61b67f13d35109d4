package bench

import (
	"strings"
	"testing"
)

// TestFigScanOrdering pins what `make scan` exists to show — the scan
// entry's check — at a size tier-1 can afford: the default ceiling, the
// default depth against the ablation. Pipelining beats the synchronous
// depth-1 path on full-table and on 100-entry scans, and a short scan at
// the default depth abandons at most 40% of what it prefetched.
func TestFigScanOrdering(t *testing.T) {
	f := figure(t, "scan")
	var series []Series
	for _, s := range f.Grid(10_000, nil) {
		if strings.Contains(s.Label, "2048KB") {
			s.Cells = []Cell{*s.Cell("1"), *s.Cell("2")}
			series = append(series, s)
		}
	}
	if len(series) != 2 {
		t.Fatalf("%d series at the default ceiling, want readseq and scanrandom", len(series))
	}
	f.Measure(series, nil)
	if err := f.Check(series); err != nil {
		t.Error(err)
	}
}
