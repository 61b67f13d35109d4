package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs every workload small, untraced and traced, in this
// process, and holds the output against BENCHMARK.json: every workload and
// metric named there is emitted exactly once, and no operation fails.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `dlsm-perf -spec`; regenerate it")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// ISSUE 11's counts: 14 end-to-end metrics, of which op_fail_share,
	// vlat_p999_ns and memnode_cpu_ns_per_op are the tool's alone (README).
	if len(spec.Workloads) != 5 || len(endToEnd)+1 != 14 || len(spec.EndToEnd) != 11 || len(spec.PerLayer) != 77 {
		t.Errorf("%d workloads, %d end-to-end metrics (%d in BENCHMARK.json), %d per-layer metrics; want 5, 14 (11), 77",
			len(spec.Workloads), len(endToEnd)+1, len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	// check holds one result line against the names the spec lists.
	check := func(t *testing.T, line []byte, want []struct{ Name, Unit string }) {
		t.Helper()
		var res struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, spec names %d", len(res.Metrics), len(want))
		}
		for _, w := range want {
			m, ok := res.Metrics[w.Name]
			switch {
			case !nameRE.MatchString(w.Name):
				t.Errorf("bad metric name %q", w.Name)
			case !ok:
				t.Errorf("metric %s not emitted", w.Name)
			case m.Value == nil && w.Name != "vlat_p99_ns": // too few samples at this scale
				t.Errorf("metric %s has no value", w.Name)
			case m.Unit != w.Unit:
				t.Errorf("metric %s has unit %q, spec says %q", w.Name, m.Unit, w.Unit)
			}
		}
	}

	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
				t.Errorf("bad workload entry %q", w.Name)
			}
			cfg := runCfg{workload: w.Name, seed: defaultSeed, scale: 0.02, regionBytes: 64 << 20}
			plain, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, plain.contractLine(), spec.EndToEnd)

			cfg.trace, cfg.untracedWallNS, cfg.outDir = true, plain.MeasureWallNS, t.TempDir()
			traced, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced.contractLine(), spec.PerLayer)
			if traced.SpanCounts["bench.measure"] != 1 {
				t.Errorf("span counts %v lack the measure phase", traced.SpanCounts)
			}
			data, err := os.ReadFile(traced.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) < 6 {
				t.Errorf("trace file: %d events, err %v", len(trace.TraceEvents), err)
			}
		})
	}
}
