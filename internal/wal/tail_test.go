package wal

import (
	"bytes"
	"fmt"
	"testing"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
)

func TestTailEntriesRange(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 70, 1<<20, false)
		defer tw.l.Close()
		for i := 1; i <= 20; i++ {
			tw.put(t, uint64(i), fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i))
		}
		entries, err := tw.l.TailEntries(5, 12)
		if err != nil {
			t.Fatalf("TailEntries: %v", err)
		}
		if len(entries) != 8 {
			t.Fatalf("got %d entries, want 8", len(entries))
		}
		for i, e := range entries {
			want := uint64(5 + i)
			if e.Seq != want {
				t.Fatalf("entries[%d].Seq = %d, want %d", i, e.Seq, want)
			}
			if k := fmt.Sprintf("key-%02d", want); !bytes.Equal(e.Key, []byte(k)) {
				t.Fatalf("entries[%d].Key = %q, want %q", i, e.Key, k)
			}
			if v := fmt.Sprintf("val-%02d", want); !bytes.Equal(e.Value, []byte(v)) {
				t.Fatalf("entries[%d].Value = %q, want %q", i, e.Value, v)
			}
		}
		// The eight records sit in a row: one span names them all.
		if v, err := tw.l.ReplayView(5, 12); err != nil || len(v.Spans) != 1 || v.Spans[0].Size != 8*tw.l.live[0].size {
			t.Fatalf("ReplayView(5,12) = %+v, %v; want one span of 8 records", v, err)
		}
		// Inverted range is empty, not an error.
		if got, err := tw.l.TailEntries(7, 3); err != nil || got != nil {
			t.Fatalf("TailEntries(7,3) = %v, %v; want nil, nil", got, err)
		}
	})
}

func TestHoldTruncationPreservesTail(t *testing.T) {
	walHarness(t, func(env *sim.Env, cn *rdma.Node, srv *logHost) {
		tw := openTestWAL(t, env, cn, srv, 71, 1<<20, false)
		defer tw.l.Close()
		for i := 1; i <= 30; i++ {
			tw.put(t, uint64(i), fmt.Sprintf("key-%02d", i), "v")
		}
		// With truncation held, publishing a checkpoint that covers seq ≤ 25
		// must not reclaim those records: the tail read still needs them.
		tw.l.HoldTruncation()
		tw.covered.Store(25)
		if err := tw.l.RefreshNow(); err != nil {
			t.Fatalf("RefreshNow: %v", err)
		}
		entries, err := tw.l.TailEntries(1, 30)
		if err != nil {
			t.Fatalf("TailEntries under hold: %v", err)
		}
		if len(entries) != 30 {
			t.Fatalf("got %d entries under hold, want 30", len(entries))
		}
		tw.l.ReleaseTruncation()
		// After release the covered prefix may be trimmed, but the tail
		// above the horizon survives.
		if err := tw.l.RefreshNow(); err != nil {
			t.Fatalf("RefreshNow after release: %v", err)
		}
		entries, err = tw.l.TailEntries(26, 30)
		if err != nil {
			t.Fatalf("TailEntries after release: %v", err)
		}
		if len(entries) != 5 {
			t.Fatalf("got %d tail entries after release, want 5", len(entries))
		}
	})
}

func TestFilterRange(t *testing.T) {
	mk := func(keys ...string) []Entry {
		var out []Entry
		for i, k := range keys {
			out = append(out, Entry{Seq: uint64(i + 1), Key: []byte(k)})
		}
		return out
	}
	keysOf := func(es []Entry) []string {
		var out []string
		for _, e := range es {
			out = append(out, string(e.Key))
		}
		return out
	}
	in := mk("a", "b", "c", "d", "e")
	cases := []struct {
		lo, hi []byte
		want   []string
	}{
		{[]byte("b"), []byte("d"), []string{"b", "c"}},
		{nil, []byte("c"), []string{"a", "b"}},
		{[]byte("d"), nil, []string{"d", "e"}},
		{nil, nil, []string{"a", "b", "c", "d", "e"}},
		{[]byte("x"), nil, nil},
	}
	for _, c := range cases {
		got := keysOf(FilterRange(in, c.lo, c.hi))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("FilterRange(%q,%q) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}
