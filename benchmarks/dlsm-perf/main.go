// Command dlsm-perf is the repository's benchmark: five workloads driven
// through the public dlsm API, measured on the virtual clock (the modelled
// hardware) and on the host (the simulator itself). See ../README.md.
//
// It is a module of its own; run it from this directory:
//
//	go run . -all                 every workload, untraced, one fresh process each
//	go run . -all -trace          ... plus a traced pass for the per-layer table
//	go run . -check               run-to-run determinism test
//	go run . -all -compare old.json
//	go run . -workload readrandom -trace
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// setupRuns is how many set-ups setup_s is the median of, whoever asks
// (-workload, -all, -check, the runner). One runs in the measuring process,
// the others in child processes that stop after set-up: a second deployment
// in one process is not a fresh one (README, Finding 2). Three is what the
// runner's time budget leaves room for (with five, its 114 runs took 34 of
// the 57 minutes allowed, on a box that at times runs half as fast);
// fillrandom's set-up, 4 to 18 ms of deploy and open, stays mostly noise
// (README, "Host noise").
const setupRuns = 3

type options struct {
	runCfg
	all, check, spec, child bool
	compare, reportPath     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: fillrandom, readrandom, ycsb_a_svc, readseq or scanrandom")
	flag.BoolVar(&o.all, "all", false, "run every workload, each in a fresh child process")
	flag.BoolVar(&o.check, "check", false, "run every workload twice on one seed and fail unless the repeatable metrics agree")
	flag.StringVar(&o.compare, "compare", "", "with -all or -report: compare against this earlier report")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (client c draws from seed + c*7919)")
	flag.Float64Var(&o.scale, "scale", 1.0, "multiplies every count of every workload")
	flag.BoolVar(&o.trace, "trace", false, "traced pass: spans, layer probes and the per-layer metrics")
	flag.StringVar(&o.outDir, "out-dir", "dlsm-perf-out", "directory for Chrome traces")
	flag.StringVar(&o.reportPath, "report", "", "-all: write the merged report here; with -compare alone: the report to compare")
	flag.BoolVar(&o.verbose, "v", false, "log each phase's host time, virtual time and resident-set peak as it ends")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: set up, report setup_s, exit")
	flag.Int64Var(&o.untracedWallNS, "untraced-wall-ns", 0, "internal: measured-phase wall time of the untraced pass")
	flag.BoolVar(&o.child, "child", false, "internal: print the full report object as the last line")
	flag.Parse()
	if flag.NArg() > 0 {
		logf("unexpected argument %q", flag.Arg(0))
		os.Exit(2)
	}

	var err error
	ok := true
	switch {
	case o.spec:
		os.Stdout.Write(benchmarkJSON())
	case o.check:
		ok, err = o.runCheck()
	case o.all:
		ok, err = o.runAllAndReport()
	case o.workload != "":
		ok, err = o.runOne()
	case o.compare != "" && o.reportPath != "":
		err = compareFiles(o.compare, o.reportPath)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		logf("dlsm-perf: %v", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs a single workload in this process. Standard output ends with
// one JSON line: the runner contract's result object, or with -child the
// full report.
func (o *options) runOne() (bool, error) {
	if findWorkload(o.workload) == nil {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace && o.untracedWallNS == 0 {
		// A traced run on its own first runs its untraced twin, for
		// host.tracing_overhead_share.
		r, err := o.spawn(o.workload)
		if err != nil {
			return false, err
		}
		o.untracedWallNS = r.MeasureWallNS
	}
	guard.start(func(hwm int64) {
		logf("dlsm-perf: %s: resident set peaked at %d MiB, over the %d MiB guard: aborting the run as failed",
			o.workload, hwm>>20, int64(memLimitBytes)>>20)
		os.Exit(3)
	})
	rep, err := run(o.runCfg)
	guard.halt()
	if err != nil {
		return false, err
	}
	if !o.child {
		if err := o.medianSetup(rep); err != nil {
			return false, err
		}
	}
	rep.writeTable(os.Stdout)
	line := rep.contractLine()
	if o.child {
		if line, err = json.Marshal(rep); err != nil {
			return false, err
		}
	}
	fmt.Printf("%s\n", line)
	return rep.Failed == 0, nil
}

// medianSetup replaces an untraced report's setup_s, one set-up, by the
// median of setupRuns: the others run here, each in a child process.
func (o *options) medianSetup(rep *workloadReport) error {
	m := rep.find("setup_s")
	if m == nil { // traced: the end-to-end metrics come from the untraced pass
		return nil
	}
	all := []float64{*m.Value}
	for len(all) < setupRuns {
		r, err := o.spawn(rep.Workload, "-setup-only")
		if err != nil {
			return err
		}
		all = append(all, *r.find("setup_s").Value)
	}
	sort.Float64s(all)
	*m.Value, m.Samples = all[len(all)/2], int64(len(all))
	return nil
}

// spawn runs one workload in a fresh child process of this binary and
// returns its report. A workload never runs twice in one process: repeating
// it in-process multiplies its system time (see the README's host-noise
// section).
func (o *options) spawn(workload string, extra ...string) (*workloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-workload", workload, "-child",
		"-seed", strconv.FormatInt(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-out-dir", o.outDir,
	}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep workloadReport
	if jerr := json.Unmarshal(lines[len(lines)-1], &rep); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, fmt.Errorf("%s %v: %w", filepath.Base(exe), args, err)
	}
	// A child that counted failures exits 1 but still reports; keep it.
	return &rep, nil
}

// runAll runs every workload untraced and, with -trace, once more traced,
// merging both passes into one report.
func (o *options) runAll() (*report, error) {
	rep := newReport(o.seed, o.scale)
	for _, w := range workloads {
		logf("-- %s", w.name)
		r, err := o.spawn(w.name)
		if err == nil {
			err = o.medianSetup(r)
		}
		if err != nil {
			return nil, err
		}
		if o.trace {
			t, err := o.spawn(w.name, "-trace", "-untraced-wall-ns", strconv.FormatInt(r.MeasureWallNS, 10))
			if err != nil {
				return nil, err
			}
			r.Traced = true
			r.PerLayer, r.SpanCounts, r.TraceFile = t.PerLayer, t.SpanCounts, t.TraceFile
			r.Attempted += t.Attempted
			r.Failed += t.Failed
		}
		rep.Workloads = append(rep.Workloads, *r)
	}
	return rep, nil
}

func (r *report) failed() (n int64) {
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func (o *options) runAllAndReport() (bool, error) {
	rep, err := o.runAll()
	if err != nil {
		return false, err
	}
	for i := range rep.Workloads {
		rep.Workloads[i].writeTable(os.Stdout)
	}
	if o.reportPath != "" {
		if err := writeJSON(o.reportPath, rep); err != nil {
			return false, err
		}
	}
	if o.compare != "" {
		old, err := readReport(o.compare)
		if err != nil {
			return false, err
		}
		if err := compareReports(os.Stdout, old, rep); err != nil {
			return false, err
		}
	}
	return rep.failed() == 0, nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	return compareReports(os.Stdout, old, cur)
}
