package bench

import (
	"testing"
	"time"

	"dlsm/internal/engine"
	"dlsm/internal/memnode"
)

// TestFigureConfigsValidate: every engine configuration a figure opens —
// each system plain and bulkloaded, and dLSM under every feature knob a
// sweep turns — passes Options.Validate, so validation rejects only what
// no figure ever meant.
func TestFigureConfigsValidate(t *testing.T) {
	replica := new(memnode.Server)
	type variant struct {
		cfg     Config
		replica *memnode.Server
	}
	var variants []variant
	for _, sys := range []System{DLSM, DLSMBlock, RocksRDMA8K, RocksRDMA2K, MemoryRocks, NovaLSM} {
		variants = append(variants,
			variant{cfg: Config{System: sys}},
			variant{cfg: Config{System: sys, Bulkload: true}},
			variant{cfg: Config{System: sys, ComputeNodes: 2, MemoryNodes: 2}})
	}
	for _, cfg := range []Config{
		{DisableNearData: true},
		{Lambda: 8, ReadRatio: 0.5},
		{Zipf: 1.2, CacheBudgetBytes: 4 << 20},
		{PrefetchDepth: 1, PrefetchBytes: 256 << 10},
		{Durability: engine.DurabilityAsync, WALPerWrite: true},
		{Durability: engine.DurabilitySync},
		{Durability: engine.DurabilitySync, OffloadFlush: true},
		{Durability: engine.DurabilitySync, OffloadFlush: true, OffloadIndexBuild: true},
		{Durability: engine.DurabilitySync, OffloadFlush: true, OffloadIndexBuild: true, OffloadFilter: true},
		{Lambda: 4, AutoBalance: true, BalanceInterval: 2 * time.Millisecond},
		{FaultScenario: "flap"},
		{Durability: engine.DurabilityAsync, ComputeNodes: 4},
	} {
		cfg.System = DLSM
		variants = append(variants, variant{cfg: cfg})
	}
	for _, mode := range []string{"index", "log"} {
		variants = append(variants, variant{
			cfg:     Config{System: DLSM, Durability: engine.DurabilitySync, MemoryNodes: 2, ReplicationFactor: 2, ReplMode: mode},
			replica: replica})
	}
	for _, v := range variants {
		cfg := v.cfg.Normalize()
		opts := engineOptions(cfg.System, cfg, lambdaFor(cfg.System, cfg), v.replica)
		if err := opts.Validate(); err != nil {
			t.Errorf("%s %+v: %v", cfg.System, v.cfg, err)
		}
	}
}
