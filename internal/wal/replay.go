package wal

// Span locates a run of framed records laid back to back inside the ring
// (ring-relative offset; records never wrap the ring edge, so
// [Off, Off+Size) is always contiguous). WalkSpan decodes one.
type Span struct {
	Off  int
	Size int
}

// maxSpan caps a span: a run of records longer than this is simply named
// as several spans. Small enough that a MemTable's worth is a few dozen,
// which the memory node's replay indexes in parallel lanes, and that a
// reader fetching one over the fabric (TailEntries) stages it in a small
// buffer; large enough that the descriptor stays a few hundred bytes.
const maxSpan = 32 << 10

// View is a zero-copy flush descriptor: the ring locations of every
// durable record whose sequence span overlaps a requested range, adjacent
// records coalesced into spans (a MemTable's records mostly sit in a row,
// so a view is a handful of spans, not one location per write). The
// engine ships it to the memory node instead of re-sending immutable
// memtable contents (DESIGN.md §11) — the bytes are already resident in
// memory-node DRAM, so the memnode replays them in place. The records stay
// resident, byte for byte, until the flush completes: truncation only
// trims records whose sequences a published checkpoint covers, and the
// covered horizon stays strictly below any unflushed memtable's range.
type View struct {
	Epoch uint64
	Spans []Span
}

// ReplayView returns the ring locations of every durable record
// overlapping [seqLo, seqHi], first waiting out the ones still in flight:
// every record in the ring already has its place and its doorbell posted
// or queued behind the window, so durability needs only the fabric. If the
// log breaks instead, the error is returned and the caller falls back to
// building the table itself.
//
// A record that is reserved but not yet framed is invisible here. For a
// flush that loses nothing: its writer either has no sequence numbers yet
// — they will lie above any switched memtable's range — or holds them
// under a claim, and the flush quiesce barrier waits claims out before it
// asks for a view. The flush protocol still compares the built table's
// entry count against the memtable's and falls back on a shortfall, so
// ReplayView itself makes no completeness promise.
func (l *Log) ReplayView(seqLo, seqHi uint64) (View, error) {
	l.mu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.mu.Unlock()
		return View{}, err
	}
	v := View{Epoch: l.epoch}
	var last uint64
	for _, r := range l.live {
		if !r.framed || r.loSeq > seqHi || r.maxSeq < seqLo {
			continue
		}
		if n := len(v.Spans); n > 0 && v.Spans[n-1].Off+v.Spans[n-1].Size == r.off &&
			v.Spans[n-1].Size+r.size <= maxSpan {
			v.Spans[n-1].Size += r.size
		} else {
			v.Spans = append(v.Spans, Span{Off: r.off, Size: r.size})
		}
		last = r.lsn
	}
	// Truncation cannot touch these records meanwhile: the covered horizon
	// stays strictly below an unflushed memtable's range.
	l.mu.Unlock()
	return v, l.await(last, true)
}
