package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dlsm/internal/bench"
)

// TestUnknownFigureRejectedBeforeRunning: the whole -fig list is checked
// against the table before anything runs, so a typo after a valid id costs
// no sweep: exit 2, the known ids on stderr, nothing on stdout.
func TestUnknownFigureRejectedBeforeRunning(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "7a,bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty — a figure ran before the list was validated:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown figure "bogus"`) {
		t.Errorf("stderr does not name the unknown figure: %s", stderr.String())
	}
	for _, f := range bench.Figures {
		if !strings.Contains(stderr.String(), " "+f.ID+" ") {
			t.Errorf("stderr does not list known figure %q: %s", f.ID, stderr.String())
		}
	}
}

// TestCheckDecidesExitStatus runs a one-point figure end to end: its table
// goes to stdout, its progress line to stderr, and its check — evaluated
// only from -n CheckFrom up — is silent when it holds and one CHECK FAILED
// line plus exit status 1 when it does not.
func TestCheckDecidesExitStatus(t *testing.T) {
	saved := bench.Figures
	defer func() { bench.Figures = saved }()
	var verdict error
	bench.Figures = []bench.Fig{{
		ID: "tiny", Name: "Fig tiny", Title: "one fill", XLabel: "threads",
		Rows: []bench.Axis{{Label: "dLSM"}},
		Cols: func(int, []int) []bench.Axis {
			return []bench.Axis{{Label: "2", Set: func(c *bench.Cell) { c.Threads = 2 }}}
		},
		CheckFrom: 2_000,
		Check:     func([]bench.Series) error { return verdict },
	}}
	for _, tc := range []struct {
		n       string
		verdict error
		code    int
	}{
		{"2000", nil, 0},
		{"2000", errors.New("it does not show it"), 1},
		{"1000", errors.New("it does not show it"), 0}, // below the floor: not evaluated
	} {
		verdict = tc.verdict
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fig", "tiny", "-n", tc.n, "-metrics=false"}, &stdout, &stderr); code != tc.code {
			t.Errorf("-n %s, check %v: exit %d, want %d", tc.n, tc.verdict, code, tc.code)
		}
		if !strings.HasPrefix(stdout.String(), "\nFig tiny: one fill\nthreads  2\ndLSM ") {
			t.Errorf("-n %s: stdout is not the figure's table:\n%s", tc.n, stdout.String())
		}
		if !strings.HasPrefix(stderr.String(), "  ... figtiny: ") {
			t.Errorf("-n %s: stderr does not start with the progress line:\n%s", tc.n, stderr.String())
		}
		failed := strings.Contains(stderr.String(), "CHECK FAILED: -fig tiny: it does not show it\n")
		if failed != (tc.code == 1) {
			t.Errorf("-n %s, check %v: CHECK FAILED line present = %v", tc.n, tc.verdict, failed)
		}
	}
}
