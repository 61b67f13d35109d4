package memnode

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFlushBuildArgs: flush_build arguments arrive over the fabric
// from an arbitrary compute node; hostile bytes must decode or error, never
// panic, and whatever decodes must survive a re-encode/re-decode round trip
// unchanged. What decodes is then replayed against a real log ring of 16
// entries (under the ring's own key and epoch, so the mutated spans,
// sequence range and order section are what is tested): replay errors or
// feeds exactly the in-range entries, each once — never a panic, never a
// table with a wrong entry count.
func FuzzDecodeFlushBuildArgs(f *testing.F) {
	const n = 16
	bed := newReplayBed(f, n)
	valid := &FlushBuildArgs{
		JobID: 7, BlockSize: 4096, BitsPerKey: 10,
		ExtentCap: 1 << 16, Capacity: 1 << 15, FooterReserve: 512,
		BuildIndex: true, BuildFilter: true,
		Replay: bed.r,
	}
	f.Add(EncodeFlushBuildArgs(valid))
	order := func(mutate func(o []byte) []byte) []byte {
		a := *valid
		a.Replay.Order = mutate(append([]byte(nil), bed.r.Order...))
		return EncodeFlushBuildArgs(&a)
	}
	f.Add(order(func(o []byte) []byte { copy(o[4:8], o[:4]); return o }))                     // duplicate offset
	f.Add(order(func(o []byte) []byte { return o[:len(o)-4] }))                               // missing entry
	f.Add(order(func(o []byte) []byte { binary.LittleEndian.PutUint32(o[8:], n); return o })) // offset out of range
	f.Add(order(func(o []byte) []byte { return append(o, o[:4]...) }))                        // one entry too many
	narrow := *valid
	narrow.Replay.SeqLo, narrow.Replay.SeqHi = 5, 12 // a neighbour's entries share the spans
	f.Add(EncodeFlushBuildArgs(&narrow))
	noIndex := *valid
	noIndex.BuildIndex = false // filter without the index under it
	f.Add(EncodeFlushBuildArgs(&noIndex))

	f.Add(EncodeFlushBuildArgs(valid)[:20]) // truncated fixed header
	f.Add([]byte{})                         // empty
	f.Add(make([]byte, flushArgsFixed+4))   // all-zero: Capacity 0 must error
	torn := EncodeFlushBuildArgs(valid)
	torn[flushArgsFixed+8] ^= 0xFF // corrupt a span length
	f.Add(torn)

	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeFlushBuildArgs(b)
		if err != nil {
			return
		}
		r := &a.Replay
		count := len(r.Order) / 4
		if a.Capacity <= 0 || a.ExtentCap < 0 || a.FooterReserve < 0 || a.BuildFilter && !a.BuildIndex {
			t.Fatalf("decode accepted out-of-range sizes or layers: %+v", a)
		}
		if seqs := r.SeqHi - r.SeqLo + 1; r.SeqHi < r.SeqLo || count == 0 || uint64(count) > seqs || seqs > 2*uint64(count)+replaySeqSlack {
			t.Fatalf("decode accepted %d entries over sequences [%d, %d]", count, r.SeqLo, r.SeqHi)
		}
		for i, sp := range r.Spans {
			if sp.Off < 0 || sp.Size <= 0 {
				t.Fatalf("decode accepted span %d = %+v", i, sp)
			}
		}
		// Round trip: re-encoding the decoded struct reproduces the payload.
		if b2 := EncodeFlushBuildArgs(a); !bytes.Equal(b2, b) {
			t.Fatalf("round trip diverged:\n  %x\n  %x", b, b2)
		}

		r.LogKey, r.Epoch = bed.r.LogKey, bed.r.Epoch
		fed := map[string]bool{}
		if _, err := bed.replay(r, func(ikey, _ []byte) { fed[string(ikey)] = true }); err != nil {
			return
		}
		inRange := 0
		for seq := uint64(1); seq <= n; seq++ {
			if seq >= r.SeqLo && seq <= r.SeqHi {
				inRange++
			}
		}
		if len(fed) != count || count != inRange {
			t.Fatalf("replay fed %d distinct entries for an order of %d; the ring holds %d in [%d, %d]",
				len(fed), count, inRange, r.SeqLo, r.SeqHi)
		}
	})
}
