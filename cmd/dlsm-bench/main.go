// Command dlsm-bench regenerates the paper's evaluation figures (§XI) on
// the simulated disaggregated-memory testbed. Each figure prints as a
// throughput table whose shape (orderings, ratios, crossovers) is compared
// against the paper in EXPERIMENTS.md.
//
// Usage:
//
//	dlsm-bench -fig 7a [-n 200000] [-threads 1,2,4,8,16]
//	dlsm-bench -fig all -n 100000
//
// The figures are the entries of bench.Figures; run without arguments for
// their ids. A figure that states a check (what it exists to show) is
// checked after it prints whenever -n is large enough for the effect: one
// "CHECK FAILED" line on stderr and exit status 1 when it does not hold.
// Throughput is virtual-time based (see DESIGN.md); -n scales the paper's
// 100M-key workloads down to laptop runtimes while preserving the
// data:memtable:sstable ratios.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"dlsm/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var ids []string
	for _, f := range bench.Figures {
		ids = append(ids, f.ID)
	}
	known := strings.Join(ids, " ") + " all"

	fs := flag.NewFlagSet("dlsm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "", "figure to reproduce: "+known)
		n       = fs.Int("n", 200_000, "operations per data point (paper: 100M)")
		threads = fs.String("threads", "1,2,4,8,16", "thread counts for thread-sweep figures")
		quiet   = fs.Bool("q", false, "suppress per-point progress output")
		metrics = fs.Bool("metrics", true, "print a telemetry snapshot after each figure")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig == "" {
		fs.Usage()
		return 2
	}

	// Everything the arguments can get wrong is reported before the first
	// figure runs: a sweep takes minutes.
	var ths []int
	for _, p := range strings.Split(*threads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			fmt.Fprintf(stderr, "bad thread count %q\n", p)
			return 2
		}
		ths = append(ths, v)
	}
	if *fig == "all" {
		*fig = strings.Join(ids, ",")
	}
	var figs []*bench.Fig
	for _, id := range strings.Split(*fig, ",") {
		i := slices.Index(ids, id)
		if i < 0 {
			fmt.Fprintf(stderr, "unknown figure %q (known: %s)\n", id, known)
			return 2
		}
		figs = append(figs, &bench.Figures[i])
	}

	progress := func(line string) {
		if !*quiet {
			fmt.Fprintf(stderr, "  ... %s\n", line)
		}
	}
	status := 0
	for _, f := range figs {
		series := f.Measure(f.Grid(*n, ths), progress)
		if f.Extra != nil {
			series = append(series, f.Extra(series, progress)...)
		}
		f.Print(stdout, series, *metrics)
		if f.Check == nil || *n < f.CheckFrom {
			continue
		}
		if err := f.Check(series); err != nil {
			fmt.Fprintf(stderr, "CHECK FAILED: -fig %s: %v\n", f.ID, err)
			status = 1
		}
	}
	return status
}
