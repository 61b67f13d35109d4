package bench

import (
	"testing"

	"dlsm/internal/memnode"
)

// TestFigureConfigsValidate: every engine configuration a figure opens —
// each point of each entry of the figure table, at the point's own shard
// and memory-node count, with a replica where the point has one — passes
// Options.Validate, so validation rejects only what no figure ever meant.
func TestFigureConfigsValidate(t *testing.T) {
	points := 0
	for _, f := range Figures {
		for _, s := range f.Grid(20_000, []int{1, 16}) {
			for _, c := range s.Cells {
				cfg := c.Config.Normalize()
				if cfg.System == Sherman {
					continue
				}
				lambda, replicated := cfg.shards()
				opts := engineOptions(cfg, lambda)
				if replicated {
					mirrorOnto(&opts, new(memnode.Server))
				}
				if err := opts.Validate(); err != nil {
					t.Errorf("-fig %s, %s, %s: %v", f.ID, s.Label, c.X, err)
				}
				points++
			}
		}
	}
	if points < 150 {
		t.Errorf("validated %d points, want the whole table (>= 150)", points)
	}
}
