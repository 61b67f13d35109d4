package bench

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
)

// Fig is one entry of the figure table (table.go): everything that makes a
// figure that figure, as data. Grid lays any entry out, Measure runs it and
// Print renders it (DESIGN.md §16).
type Fig struct {
	ID     string // the -fig argument
	Name   string // "Fig 7(a)"
	Title  string
	XLabel string

	// Cell (row, col) of the grid is the point {N: -n, Threads:
	// max(-threads)} on the single-node testbed, changed by Base, then by
	// the column's delta, then by the row's. Cols sees -n and -threads
	// because a few figures sweep them.
	Base func(c *Cell)
	Rows []Axis
	Cols func(n int, threads []int) []Axis
	// Extra, when set, is run on the measured grid and measures what the
	// figure reports beyond it — in a progress line and the footer, never
	// in a table — returning it as further series for Print, marked Extra.
	Extra func(grid []Series, progress func(line string)) []Series

	// Passes, when set, measures every cell once per pass, under that
	// pass's workload (Fig 9, 13, 14 and 15 fill and then read every
	// configuration). Unset, a cell is measured once under its own
	// Point.Workload.
	Passes []Pass
	// ByColumn walks the grid column by column instead of row by row (only
	// the order of the progress lines depends on it).
	ByColumn bool

	// Note is what a finished cell's progress line says after "<Cell.At>:
	// "; nil says the throughput(s).
	Note func(s *Series, c *Cell) string
	// Footer prints what the figure reports beyond throughput tables.
	Footer func(w io.Writer, series []Series)

	// Check states what the figure exists to show, as an error when a
	// measured grid does not show it. It holds from -n CheckFrom up
	// (smaller runs are too short for the effect), at any -threads.
	Check     func(series []Series) error
	CheckFrom int
}

// Axis is one position along a figure's rows or columns.
type Axis struct {
	Label string        // the series label, or the column header
	At    string        // its part of the cell's name in progress lines, if any
	Set   func(c *Cell) // its delta on the cell, if any
}

// Pass is one measurement of every cell of a multi-pass figure: the
// workload, and where its numbers go. All-empty placement is the default —
// the figure's one table, the series' row, the cell's column.
type Pass struct {
	Workload Workload
	Table    string // a table of its own: suffix to Fig.Name ...
	Title    string // ... and its title
	Row      string // a row of its own per series: "<Row> (<series>)"
	Col      string // a column of its own, replacing the cell's X
}

// Series is one row of a measured figure.
type Series struct {
	Label string
	Extra bool // see Fig.Extra
	Cells []Cell
}

// Cell is one grid position: what to measure and, once measured, what came
// out.
type Cell struct {
	X  string // column label
	At string // how a progress line names this cell: "fig7a dLSM threads=4"
	Point
	// R holds one Result per pass of the figure, in Fig.Passes order.
	R []Result
}

// Cell returns the series' cell at column x; a missing column is a bug in
// the caller's table entry.
func (s *Series) Cell(x string) *Cell {
	for i := range s.Cells {
		if s.Cells[i].X == x {
			return &s.Cells[i]
		}
	}
	panic(fmt.Sprintf("bench: series %q has no cell %q", s.Label, x))
}

// Grid lays the figure out at scale n. A cell is named "fig<id> <row>
// <col>" after its axes' At parts; a figure with one row does not name it.
func (f *Fig) Grid(n int, threads []int) []Series {
	base := Cell{Point: Point{Config: Config{N: n}}}
	for _, th := range threads {
		base.Threads = max(base.Threads, th)
	}
	if f.Base != nil {
		f.Base(&base)
	}
	var series []Series
	for _, row := range f.Rows {
		s := Series{Label: row.Label}
		for _, col := range f.Cols(n, threads) {
			c := base
			c.X, c.At = col.Label, "fig"+f.ID
			if len(f.Rows) > 1 && row.At != "" {
				c.At += " " + row.At
			}
			if col.At != "" {
				c.At += " " + col.At
			}
			for _, ax := range []Axis{col, row} {
				if ax.Set != nil {
					ax.Set(&c)
				}
			}
			s.Cells = append(s.Cells, c)
		}
		series = append(series, s)
	}
	return series
}

// Measure fills in every cell of a grid this figure laid out (tests trim
// the grid first to the cells they can afford, keeping it rectangular) and
// returns it; progress, when non-nil, receives one line per finished cell.
func (f *Fig) Measure(series []Series, progress func(line string)) []Series {
	if progress == nil {
		progress = func(string) {}
	}
	rows, cols := len(series), len(series[0].Cells)
	for k := 0; k < rows*cols; k++ {
		s, x := k/cols, k%cols
		if f.ByColumn {
			s, x = k%rows, k/rows
		}
		c := &series[s].Cells[x]
		c.R = nil
		for _, pass := range f.passes() {
			p := c.Point
			if f.Passes != nil {
				p.Workload = pass.Workload
			}
			c.R = append(c.R, Run(p))
		}
		note := throughputs(c)
		if f.Note != nil {
			note = f.Note(&series[s], c)
		}
		progress(c.At + ": " + note)
	}
	return series
}

func (f *Fig) passes() []Pass {
	if len(f.Passes) == 0 {
		return []Pass{{}}
	}
	return f.Passes
}

// throughputs is the default progress note: the cell's throughput in its
// workload's unit, or the write and read pair of a fill-then-read figure.
func throughputs(c *Cell) string {
	if len(c.R) == 2 {
		return fmt.Sprintf("write %s, read %s", fmtTput(c.R[0].Throughput), fmtTput(c.R[1].Throughput))
	}
	unit := "ops/s"
	if c.Workload == ReadSeq || c.Workload == ScanRandom {
		unit = "entries/s"
	}
	return fmtTput(c.R[0].Throughput) + " " + unit
}

// table is one printed throughput table: rows and columns in the order
// the grid first names them.
type table struct {
	name, title string
	rows, cols  []string
	at          map[[2]string]*Result
}

// tables places every result of a measured grid: pass k of a cell lands in
// the table, row and column its Pass names.
func (f *Fig) tables(series []Series) []*table {
	var out []*table
	for k, pass := range f.passes() {
		name, title := f.Name+pass.Table, pass.Title
		if title == "" {
			title = f.Title
		}
		if len(out) == 0 || out[len(out)-1].name != name {
			out = append(out, &table{name: name, title: title, at: map[[2]string]*Result{}})
		}
		t := out[len(out)-1]
		for si := range series {
			s := &series[si]
			if s.Extra {
				continue
			}
			row := s.Label
			switch {
			case pass.Row != "" && s.Label != "":
				row = pass.Row + " (" + s.Label + ")"
			case pass.Row != "":
				row = pass.Row
			}
			for ci := range s.Cells {
				col := s.Cells[ci].X
				if pass.Col != "" {
					col = pass.Col
				}
				if !slices.Contains(t.rows, row) {
					t.rows = append(t.rows, row)
				}
				if !slices.Contains(t.cols, col) {
					t.cols = append(t.cols, col)
				}
				t.at[[2]string{row, col}] = &s.Cells[ci].R[k]
			}
		}
	}
	return out
}

// Print renders a measured grid: its throughput tables, then the footer.
// With metrics set, the first table is followed by one telemetry snapshot:
// the richest point of its first row (dLSM in the system sweeps),
// preferring the last — the fullest run, with latency histograms,
// flush-pipeline stats, per-level compaction and per-link network bytes.
func (f *Fig) Print(w io.Writer, series []Series, metrics bool) {
	for i, t := range f.tables(series) {
		fmt.Fprintf(w, "\n%s: %s\n", t.name, t.title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s", f.XLabel)
		for _, col := range t.cols {
			fmt.Fprintf(tw, "\t%s", col)
		}
		fmt.Fprintln(tw)
		for _, row := range t.rows {
			fmt.Fprintf(tw, "%s", row)
			for _, col := range t.cols {
				fmt.Fprintf(tw, "\t%s", fmtTput(t.at[[2]string{row, col}].Throughput))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		if i > 0 || !metrics {
			continue
		}
		size := func(r *Result) int {
			return len(r.Metrics.Counters) + len(r.Metrics.Gauges) + len(r.Metrics.Histograms)
		}
		best, bestCol := t.at[[2]string{t.rows[0], t.cols[0]}], t.cols[0]
		for _, col := range t.cols {
			if r := t.at[[2]string{t.rows[0], col}]; size(r) >= size(best) {
				best, bestCol = r, col
			}
		}
		fmt.Fprintf(w, "\n%s metrics (%s, %s=%s):\n", t.name, t.rows[0], f.XLabel, bestCol)
		best.Metrics.WriteText(w)
	}
	if f.Footer != nil {
		f.Footer(w, series)
	}
}

func fmtTput(t float64) string {
	switch {
	case t >= 1e6:
		return fmt.Sprintf("%.2fM", t/1e6)
	case t >= 1e3:
		return fmt.Sprintf("%.1fK", t/1e3)
	default:
		return fmt.Sprintf("%.0f", t)
	}
}
