package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"dlsm/internal/sim"
)

// spanKeepEvery: every call is counted, one in this many is kept, so a
// traced run's memory and file stay a few MB at any scale.
const spanKeepEvery = 32

// span is one timed interval on both clocks. Spans are recorded by the
// harness around its calls into the system (bench.* phases, svc.request,
// db.put / db.get / db.scan); spans inside the engine are a later change.
type span struct {
	Name   string
	ID     uint64
	Parent uint64 // 0 = a root
	Client int    // -1 = the harness driver
	V0, V1 int64  // virtual ns
	H0, H1 int64  // host ns since process start
}

// tracer hands out span ids and reads both clocks. Spans themselves live
// in the records of the entity that made them.
type tracer struct {
	env *sim.Env
	ids atomic.Uint64
}

func newTracer(env *sim.Env) *tracer { return &tracer{env: env} }

func (t *tracer) nextID() uint64 { return t.ids.Add(1) }

func (t *tracer) begin(name string, parent uint64, client int) span {
	return span{Name: name, ID: t.nextID(), Parent: parent, Client: client,
		V0: int64(t.env.Now()), H0: hostNow()}
}

func (t *tracer) end(sp *span) {
	sp.V1, sp.H1 = int64(t.env.Now()), hostNow()
}

// spanCounts is the number of spans seen per name (kept or not).
func (b *bench) spanCounts() map[string]int64 {
	counts := map[string]int64{}
	for _, p := range b.phases {
		counts[p.Name]++
	}
	for _, r := range b.measured {
		for name, n := range r.seen {
			counts[name] += n
		}
	}
	return counts
}

// writeTrace writes the kept spans as Chrome-trace JSON (load it in
// chrome://tracing or ui.perfetto.dev). ts and dur are on the virtual
// clock, in the format's microseconds; host times ride in args.
func (b *bench) writeTrace(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, b.w.name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(sp span) error {
		ev := struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		}{
			Name: sp.Name, Ph: "X", Ts: float64(sp.V0) / 1e3, Dur: float64(sp.V1-sp.V0) / 1e3,
			Pid: 1, Tid: sp.Client + 1,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent,
				"host_start_ns": sp.H0, "host_dur_ns": sp.H1 - sp.H0},
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
		_, err = w.Write(data)
		return err
	}
	for _, sp := range b.phases {
		if err := emit(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	for _, r := range b.measured {
		for _, sp := range r.spans {
			if err := emit(sp); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
