package wal

import (
	"bytes"
	"fmt"
	"sort"
)

// HoldTruncation pauses ring truncation: checkpoints keep publishing, but
// no live record is trimmed until ReleaseTruncation. Shard migration holds
// the ring while it captures a table horizon and reads the tail above it —
// without the hold, a flush completing in between could publish a higher
// covered horizon and reclaim records the tail read still needs. Holds
// nest; nil-safe.
func (l *Log) HoldTruncation() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.holdTrunc++
	l.mu.Unlock()
}

// ReleaseTruncation undoes one HoldTruncation and nudges the trimmer so
// space held back during the pause is reclaimed promptly. Nil-safe.
func (l *Log) ReleaseTruncation() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.holdTrunc > 0 {
		l.holdTrunc--
		if l.holdTrunc == 0 {
			l.refreshReq = true
			l.trimCond.Signal()
		}
	}
	l.mu.Unlock()
}

// TailEntries reads back every durable log entry with sequence in
// [seqLo, seqHi], in sequence order. It rides ReplayView for the record
// locations (waiting out in-flight commits that overlap the range), then
// fetches each span from the remote ring over its own queue pair and
// decodes it, copying the entries out of the staging buffer. Shard migration replays the returned entries on the
// destination shard — the tail above the cloned checkpoint horizon. The
// caller must bracket the call with HoldTruncation/ReleaseTruncation if
// the horizon was computed earlier; otherwise a concurrent checkpoint
// could trim records between the horizon capture and the read.
func (l *Log) TailEntries(seqLo, seqHi uint64) ([]Entry, error) {
	if seqLo > seqHi {
		return nil, nil
	}
	view, err := l.ReplayView(seqLo, seqHi)
	if err != nil {
		return nil, err
	}
	if len(view.Spans) == 0 {
		return nil, nil
	}
	max := 0
	for _, sp := range view.Spans {
		if sp.Size > max {
			max = sp.Size
		}
	}
	qp := l.cfg.Compute.NewQP(l.cfg.Host)
	defer qp.Close()
	mr := l.cfg.Compute.Register(max)
	defer l.cfg.Compute.Deregister(mr)

	var out []Entry
	for _, sp := range view.Spans {
		if err := qp.ReadSync(mr, 0, l.cfg.Slot.Add(l.ringBase+sp.Off), sp.Size); err != nil {
			return nil, err
		}
		ok := WalkSpan(mr.Bytes(0, sp.Size), view.Epoch, func(e Entry, _ int) {
			if e.Seq >= seqLo && e.Seq <= seqHi {
				out = append(out, e.own())
			}
		})
		if !ok {
			return nil, fmt.Errorf("wal: tail span at ring offset %d failed to parse", sp.Off)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// FilterRange returns the entries whose user keys fall in [lo, hi); nil
// bounds are unbounded. A migrating shard's log holds exactly its own
// range, but the filter keeps tail replay correct even when a caller
// replays a sub-range (a split running against a fenced source).
func FilterRange(entries []Entry, lo, hi []byte) []Entry {
	var out []Entry
	for _, e := range entries {
		if lo != nil && bytes.Compare(e.Key, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(e.Key, hi) >= 0 {
			continue
		}
		out = append(out, e)
	}
	return out
}
