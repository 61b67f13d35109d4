package wal

// RecordLoc locates one framed record inside the ring (ring-relative
// offset; records never wrap the ring edge, so [Off, Off+Size) is always
// contiguous).
type RecordLoc struct {
	Off  int
	Size int
}

// View is a zero-copy flush descriptor: the ring locations of every
// durable record whose sequence span overlaps a requested range. The
// engine ships it to the memory node instead of re-sending immutable
// memtable contents (three-layer offloading, DESIGN.md §11) — the bytes
// are already resident in memory-node DRAM, so the memnode replays them
// in place for zero extra network traffic. The records stay resident
// until the flush completes: truncation only trims records whose
// sequences a published checkpoint covers, and the covered horizon stays
// strictly below any unflushed memtable's range.
type View struct {
	Epoch   uint64
	Records []RecordLoc
}

// ReplayView returns the ring locations of every durable record
// overlapping [seqLo, seqHi], first waiting out the ones still in flight:
// every record in the ring already has its place and its doorbell posted
// or queued behind the window, so durability needs only the fabric. If the
// log breaks instead, the error is returned and the caller falls back to
// shipping the memtable contents.
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
		if r.framed && r.loSeq <= seqHi && r.maxSeq >= seqLo {
			v.Records = append(v.Records, RecordLoc{Off: r.off, Size: r.size})
			last = r.lsn
		}
	}
	// Truncation cannot touch these records meanwhile: the covered horizon
	// stays strictly below an unflushed memtable's range.
	l.mu.Unlock()
	return v, l.await(last, true)
}
