package dlsm

// One testing.B benchmark over the figure table (internal/bench.Figures):
// for every figure, the first and last column of every series, scaled down.
// Each iteration measures the cell on the simulated testbed and reports
// *virtual-time* throughput as the custom metric "vops/s" — host ns/op only
// reflects how fast the simulation executes, while vops/s reflects the
// modeled hardware and is the number compared against the paper in
// EXPERIMENTS.md. Full sweeps: cmd/dlsm-bench.
//
//	go test -run '^$' -bench 'Figure/7a' .

import (
	"fmt"
	"testing"

	"dlsm/internal/bench"
)

const (
	benchN       = 40_000
	benchThreads = 16
)

func BenchmarkFigure(b *testing.B) {
	for i := range bench.Figures {
		f := &bench.Figures[i]
		for _, s := range f.Grid(benchN, []int{benchThreads}) {
			cells := s.Cells
			if len(cells) > 2 {
				cells = []bench.Cell{cells[0], cells[len(cells)-1]}
			}
			for _, c := range cells {
				b.Run(fmt.Sprintf("%s/%s/%s", f.ID, s.Label, c.X), func(b *testing.B) {
					one := []bench.Series{{Label: s.Label, Cells: []bench.Cell{c}}}
					for i := 0; i < b.N; i++ {
						f.Measure(one, nil)
					}
					// A fill-then-read figure reports both passes.
					for k, r := range one[0].Cells[0].R {
						unit := "vops/s"
						if k > 0 {
							unit = fmt.Sprintf("pass%d-vops/s", k+1)
						}
						b.ReportMetric(r.Throughput, unit)
					}
				})
			}
		}
	}
}
