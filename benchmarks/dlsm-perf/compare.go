package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

func fmtValue(v *float64) string {
	if v == nil {
		return "null"
	}
	return fmt.Sprintf("%.6g", *v)
}

// hostTime reports whether a metric is a host timing. Such a metric does
// not repeat within 10 % between two runs on a small sandbox, so one pair
// of reports can never call it unchanged.
func hostTime(m metric) bool {
	if m.Clock != clockHost {
		return false
	}
	switch m.Unit {
	case "s", "ns", "ns/op":
		return true
	}
	return strings.HasPrefix(m.Name, "host.")
}

// worsening is by how large a share of base cur is worse (negative:
// better), given which direction is better.
func worsening(m metric, base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - base) / math.Abs(base)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// compareReports prints one row per workload and metric: both values, the
// ratio with its base, and a verdict against the metric's bound.
func compareReports(w io.Writer, old, cur *report) error {
	if old.Scale != cur.Scale || old.Seed != cur.Seed {
		return fmt.Errorf("reports are not comparable: base has seed %d scale %g, new has seed %d scale %g",
			old.Seed, old.Scale, cur.Seed, cur.Scale)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tverdict")
	for _, cw := range cur.Workloads {
		ow := old.find(cw.Workload)
		if ow == nil {
			fmt.Fprintf(tw, "%s\t(not in base)\n", cw.Workload)
			continue
		}
		for _, m := range append(append([]metric{}, cw.EndToEnd...), cw.PerLayer...) {
			om := ow.find(m.Name)
			if om == nil || om.Value == nil || m.Value == nil {
				continue
			}
			base, now := *om.Value, *m.Value
			worse := worsening(m, base, now)
			verdict := "unchanged"
			switch {
			case hostTime(m):
				verdict = "unresolved (host time; needs paired runs)"
			case m.Bound > 0 && worse > m.Bound:
				verdict = "REGRESSION"
			case worse > 0:
				verdict = "worse"
				if m.Bound > 0 {
					verdict = "worse, within bound"
				}
			case worse < 0:
				verdict = "better"
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%g%%", m.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f (base %.6g %s)\t%s\t%s\n",
				cw.Workload, m.Name, base, now, ratio(now, base), base, m.Unit, bound, verdict)
		}
	}
	return tw.Flush()
}

// runCheck is the benchmark's own run-to-run test: every workload twice,
// fresh processes, same seed. Virtual-clock metrics and the host counts
// must agree within their Repeat tolerance; host times are printed only.
func (o *options) runCheck() (bool, error) {
	o.trace = false
	var passes [2]*report
	for i := range passes {
		logf("== check: pass %d of 2", i+1)
		r, err := o.runAll()
		if err != nil {
			return false, err
		}
		passes[i] = r
	}
	ok := passes[0].failed() == 0 && passes[1].failed() == 0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpass 1\tpass 2\tdiff\ttolerance\tverdict")
	for _, a := range passes[0].Workloads {
		b := passes[1].find(a.Workload)
		for i, ma := range a.EndToEnd {
			mb := b.EndToEnd[i]
			def := endToEnd[i]
			va, vb := math.NaN(), math.NaN()
			if ma.Value != nil {
				va = *ma.Value
			}
			if mb.Value != nil {
				vb = *mb.Value
			}
			diff := math.Abs(va-vb) / math.Max(math.Abs(va), math.Abs(vb))
			verdict := "ok"
			switch {
			case (ma.Value == nil) != (mb.Value == nil):
				verdict, ok = "DIFFERS (null on one side)", false
			case ma.Value == nil || va == vb:
				diff = 0
			case def.Repeat == 0:
				verdict = "host time, not checked"
			case def.Unit == "vns" && math.Abs(va-vb) <= absLatencyFloorNS:
			case diff > def.Repeat:
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f%%\t%g%%\t%s\n",
				a.Workload, ma.Name, fmtValue(ma.Value), fmtValue(mb.Value), diff*100, def.Repeat*100, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t\t0\tFAILED OPS\n", a.Workload, opFailShare.Name, a.Failed, b.Failed)
		}
	}
	tw.Flush()
	if ok {
		fmt.Println("check: every repeatable metric agrees across the two passes")
	} else {
		fmt.Println("check: FAILED")
	}
	return ok, nil
}
