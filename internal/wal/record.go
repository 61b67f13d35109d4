// Package wal implements a remote write-ahead log for the dLSM engine:
// a per-shard ring buffer living in a pre-registered memory-node region,
// appended with one-sided RDMA writes so the commit path consumes zero
// memory-node CPU (§VIII; O³-LSM's log offloading). The commit path is a
// pipeline (commit.go, DESIGN.md S25): each record is framed once into a
// compute-side staging ring, doorbells leave back to back the way the
// flush pipeline never waits while it has bytes to post, and a completion
// entity acknowledges writers in LSN order.
//
// # Slot layout
//
// Each log owns one contiguous slot of the memory node's log region:
//
//	[ 64 B header | checkpoint slot A | checkpoint slot B | ring data ]
//
// The header names the active checkpoint slot and where the ring's live
// records begin; checkpoints are written to the inactive slot and then
// activated by a single 64-byte header write, so a torn checkpoint can
// never be observed. The checkpoint slot capacity is recorded in the
// header, making a slot image self-describing for recovery.
//
// # Record framing
//
//	u32 length | body | u32 crc32(body)
//
// body = epoch u64 | lsn u64 | seqLo u64 | count u32 |
//
//	count × (kind u8 | klen u32 | vlen u32 | key | value)
//
// Records never wrap around the ring edge: a writer that cannot fit a
// record before the edge stamps the pad marker 0xFFFFFFFF in the length
// position (or nothing, if fewer than 4 bytes remain) and continues at
// offset 0. Recovery scans from the header's start offset, accepting
// records only while the CRC matches, the epoch equals the header's, and
// LSNs run strictly sequentially — the first violation is the torn tail.
// The epoch is bumped every time a slot is (re)initialized, so records
// from a previous life of the log can never be mistaken for live ones,
// even when the ring wraps onto stale bytes with valid CRCs.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// Magic identifies an initialized log slot ("dLOG").
	Magic = 0x644c4f47
	// Version is the slot format version.
	Version = 1
	// HeaderSize is the fixed slot header length.
	HeaderSize = 64

	// padMarker in a record's length position means "rest of the ring is
	// padding; continue at offset 0".
	padMarker = 0xFFFFFFFF

	// recFixed is the fixed body prefix: epoch + lsn + seqLo + count.
	recFixed = 8 + 8 + 8 + 4
	// recOverhead frames a body: u32 length + u32 crc.
	recOverhead = 8
	// entryOverhead frames one entry: kind + klen + vlen.
	entryOverhead = 1 + 4 + 4
)

// Header mirrors the 64-byte slot header.
//
//	off  0: magic u32        4: version u32
//	off  8: epoch u64       16: startOff u64 (ring-relative)
//	off 24: startLSN u64    32: covered u64
//	off 40: ckptCap u32     44: ckptSlot u32
//	off 48: ckptLen u32     52: ckptCRC u32
//	off 56: tag u64
type Header struct {
	Epoch    uint64 // bumped on every slot (re)initialization
	StartOff uint64 // ring offset of the oldest live record
	StartLSN uint64 // LSN of the record at StartOff
	Covered  uint64 // all seqs <= Covered are captured by the checkpoint
	CkptCap  uint32 // capacity of each checkpoint slot
	CkptSlot uint32 // active checkpoint slot, 0 or 1
	CkptLen  uint32 // active checkpoint length (0: none)
	CkptCRC  uint32 // crc32 of the active checkpoint
	// Tag is the publish sequence number stamped into both headers of a
	// replicated slot pair (internal/repl): every checkpoint publish writes
	// the replica header first, then the primary's, both carrying the same
	// fresh Tag. A crash between the two flips therefore leaves the replica
	// one Tag ahead — detectable, and resolvable by preferring the higher
	// (Epoch, Tag). Unreplicated slots leave it zero (the layout's former
	// reserved word), keeping their images byte-identical to older builds.
	Tag uint64
}

func encodeHeader(h Header) []byte {
	b := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(b[0:], Magic)
	binary.LittleEndian.PutUint32(b[4:], Version)
	binary.LittleEndian.PutUint64(b[8:], h.Epoch)
	binary.LittleEndian.PutUint64(b[16:], h.StartOff)
	binary.LittleEndian.PutUint64(b[24:], h.StartLSN)
	binary.LittleEndian.PutUint64(b[32:], h.Covered)
	binary.LittleEndian.PutUint32(b[40:], h.CkptCap)
	binary.LittleEndian.PutUint32(b[44:], h.CkptSlot)
	binary.LittleEndian.PutUint32(b[48:], h.CkptLen)
	binary.LittleEndian.PutUint32(b[52:], h.CkptCRC)
	binary.LittleEndian.PutUint64(b[56:], h.Tag)
	return b
}

// DecodeHeader parses a raw 64-byte slot header as read back from remote
// memory, failing on bad magic or version. Read-only secondaries use it to
// refresh their view from the checkpoint slot without parsing the whole
// slot image.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("wal: short header: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != Magic {
		return Header{}, fmt.Errorf("wal: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != Version {
		return Header{}, fmt.Errorf("wal: unsupported version %d", v)
	}
	return Header{
		Epoch:    binary.LittleEndian.Uint64(b[8:]),
		StartOff: binary.LittleEndian.Uint64(b[16:]),
		StartLSN: binary.LittleEndian.Uint64(b[24:]),
		Covered:  binary.LittleEndian.Uint64(b[32:]),
		CkptCap:  binary.LittleEndian.Uint32(b[40:]),
		CkptSlot: binary.LittleEndian.Uint32(b[44:]),
		CkptLen:  binary.LittleEndian.Uint32(b[48:]),
		CkptCRC:  binary.LittleEndian.Uint32(b[52:]),
		Tag:      binary.LittleEndian.Uint64(b[56:]),
	}, nil
}

// CkptOffset returns the slot-relative byte offset of the active
// checkpoint blob described by h.
func (h Header) CkptOffset() int { return HeaderSize + int(h.CkptSlot)*int(h.CkptCap) }

// VerifyCheckpoint reports whether blob is the checkpoint h describes:
// the length and CRC both match. A mismatch usually means the header
// flipped while the blob was being read — re-read both and retry.
func (h Header) VerifyCheckpoint(blob []byte) bool {
	return len(blob) == int(h.CkptLen) && crc32.ChecksumIEEE(blob) == h.CkptCRC
}

// Entry is one logged write.
type Entry struct {
	Seq   uint64
	Kind  byte
	Key   []byte
	Value []byte
}

// own returns e with its key and value copied out of the buffer a walker
// handed them in.
func (e Entry) own() Entry {
	e.Key, e.Value = append([]byte(nil), e.Key...), append([]byte(nil), e.Value...)
	return e
}

// Record is one decoded log record: count entries with consecutive
// sequence numbers starting at SeqLo.
type Record struct {
	LSN     uint64
	SeqLo   uint64
	Entries []Entry
}

// appendRecord frames one record onto dst. ent yields entry i of n.
func appendRecord(dst []byte, epoch, lsn, seqLo uint64, n int, ent func(i int) (kind byte, key, value []byte)) []byte {
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	body := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint64(dst, seqLo)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		kind, key, value := ent(i)
		dst = append(dst, kind)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
		dst = append(dst, key...)
		dst = append(dst, value...)
	}
	binary.LittleEndian.PutUint32(dst[lenPos:], uint32(len(dst)-body))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[body:]))
}

// WalkSpan decodes the framed records laid back to back in b — one span of
// a View — and calls fn for each entry in ring order with at, the offset of
// the entry's frame in b. It copies and allocates nothing: key and value
// alias b, which is why a near-data flush can run it straight over the
// registered log region. Unlike recovery's ring scan there is no
// sequential-LSN requirement: spans are selected by ring location, not by
// walking from the header, so any record of the right epoch with a valid
// CRC is acceptable. ok=false means b is not exactly a run of valid
// records; entries already handed to fn must then be discarded.
func WalkSpan(b []byte, epoch uint64, fn func(e Entry, at int)) (ok bool) {
	for off := 0; off < len(b); {
		_, _, size, ok := walkRecord(b[off:], epoch, 0, func(e Entry, at int) { fn(e, off+at) })
		if !ok {
			return false
		}
		off += size
	}
	return len(b) > 0
}

// EntryAt decodes the entry frame at offset at of b, as WalkSpan reported
// it, bounds-checked again: the bytes are remote-writable memory.
func EntryAt(b []byte, at int) (kind byte, key, value []byte, ok bool) {
	if at < 0 || at > len(b)-entryOverhead {
		return 0, nil, nil, false
	}
	b = b[at:]
	klen := int64(binary.LittleEndian.Uint32(b[1:]))
	vlen := int64(binary.LittleEndian.Uint32(b[5:]))
	if klen+vlen > int64(len(b)-entryOverhead) {
		return 0, nil, nil, false
	}
	key = b[entryOverhead : entryOverhead+klen]
	return b[0], key, b[entryOverhead+klen : entryOverhead+klen+vlen], true
}

// walkRecord decodes the record at the front of b, requiring the given
// epoch and — unless wantLSN is 0, which no record carries — that exact
// LSN, and hands fn each entry (aliasing b) with its frame's offset in b.
// Returns the framed size on success; ok=false means the bytes are not a
// valid next record (torn tail), whatever fn has seen of them.
func walkRecord(b []byte, epoch, wantLSN uint64, fn func(e Entry, at int)) (lsn, seqLo uint64, size int, ok bool) {
	if len(b) < 4 {
		return 0, 0, 0, false
	}
	ln := binary.LittleEndian.Uint32(b)
	if ln == padMarker || int64(ln) < recFixed || int64(ln) > int64(len(b)-recOverhead) {
		return 0, 0, 0, false
	}
	body := b[4 : 4+ln]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4+ln:]) {
		return 0, 0, 0, false
	}
	if binary.LittleEndian.Uint64(body[0:]) != epoch {
		return 0, 0, 0, false
	}
	lsn, seqLo = binary.LittleEndian.Uint64(body[8:]), binary.LittleEndian.Uint64(body[16:])
	if wantLSN != 0 && lsn != wantLSN {
		return 0, 0, 0, false
	}
	count := int(binary.LittleEndian.Uint32(body[24:]))
	rest := body[recFixed:]
	for i := 0; i < count; i++ {
		if len(rest) < entryOverhead {
			return 0, 0, 0, false
		}
		klen := int64(binary.LittleEndian.Uint32(rest[1:]))
		vlen := int64(binary.LittleEndian.Uint32(rest[5:]))
		if klen+vlen > int64(len(rest)-entryOverhead) {
			return 0, 0, 0, false
		}
		kv := rest[entryOverhead:]
		fn(Entry{Seq: seqLo + uint64(i), Kind: rest[0], Key: kv[:klen], Value: kv[klen : klen+vlen]},
			4+int(ln)-len(rest))
		rest = kv[klen+vlen:]
	}
	if len(rest) != 0 || count == 0 {
		return 0, 0, 0, false
	}
	return lsn, seqLo, int(4 + ln + 4), true
}

// parseRecord is walkRecord into a Record that owns its bytes: recovery
// and tail reads outlive the buffer they decode from.
func parseRecord(b []byte, epoch, wantLSN uint64) (Record, int, bool) {
	var rec Record
	var size int
	var ok bool
	rec.LSN, rec.SeqLo, size, ok = walkRecord(b, epoch, wantLSN, func(e Entry, _ int) {
		rec.Entries = append(rec.Entries, e.own())
	})
	if !ok {
		return Record{}, 0, false
	}
	return rec, size, true
}

// scanRing walks the ring from the header's start position, returning
// every record up to the torn tail (first CRC/epoch/LSN violation).
func scanRing(ring []byte, h Header) []Record {
	if len(ring) == 0 || int(h.StartOff) >= len(ring) {
		return nil
	}
	off := int(h.StartOff)
	lsn := h.StartLSN
	walked := 0
	var out []Record
	for walked < len(ring) {
		rem := len(ring) - off
		if rem < 4 || binary.LittleEndian.Uint32(ring[off:]) == padMarker {
			// Tail padding (explicit marker, or too narrow to hold one):
			// the next record starts at the ring base.
			walked += rem
			off = 0
			continue
		}
		rec, size, ok := parseRecord(ring[off:], h.Epoch, lsn)
		if !ok {
			break
		}
		out = append(out, rec)
		off += size
		walked += size
		lsn++
		if off == len(ring) {
			off = 0
		}
	}
	return out
}

// geometry computes the derived slot layout. ckptCap 0 picks the default
// rule used by Open; recovery always passes the header's recorded value.
func geometry(slotSize int64, ckptCap int) (cap, ringBase, ringSize int, err error) {
	if ckptCap == 0 {
		ckptCap = int(slotSize / 8)
		if ckptCap < 4096 {
			ckptCap = 4096
		}
		if ckptCap > 4<<20 {
			ckptCap = 4 << 20
		}
		ckptCap = (ckptCap + 63) &^ 63
	}
	ringBase = HeaderSize + 2*ckptCap
	ringSize = int(slotSize) - ringBase
	if ringSize < 1024 {
		return 0, 0, 0, fmt.Errorf("wal: slot size %d leaves %d-byte ring (ckpt cap %d)", slotSize, ringSize, ckptCap)
	}
	return ckptCap, ringBase, ringSize, nil
}

// Geometry returns the derived slot layout of a slot of the given size
// under the default checkpoint-capacity rule (the one Open applies).
func Geometry(slotSize int64) (ckptCap, ringBase, ringSize int, err error) {
	return geometry(slotSize, 0)
}

// ParseImage decodes a raw slot image (header + checkpoint slots + ring)
// as read back during recovery: the header, the active checkpoint blob
// (nil when none was ever published), and every surviving record in LSN
// order up to the torn tail.
func ParseImage(img []byte) (Header, []byte, []Record, error) {
	h, err := DecodeHeader(img)
	if err != nil {
		return Header{}, nil, nil, err
	}
	_, ringBase, ringSize, err := geometry(int64(len(img)), int(h.CkptCap))
	if err != nil {
		return Header{}, nil, nil, err
	}
	if h.CkptSlot > 1 || int(h.StartOff) >= ringSize {
		return Header{}, nil, nil, fmt.Errorf("wal: corrupt header (slot %d, start %d)", h.CkptSlot, h.StartOff)
	}
	var ckpt []byte
	if h.CkptLen > 0 {
		if h.CkptLen > h.CkptCap {
			return Header{}, nil, nil, fmt.Errorf("wal: checkpoint length %d exceeds slot capacity %d", h.CkptLen, h.CkptCap)
		}
		base := HeaderSize + int(h.CkptSlot)*int(h.CkptCap)
		ckpt = append([]byte(nil), img[base:base+int(h.CkptLen)]...)
		if crc32.ChecksumIEEE(ckpt) != h.CkptCRC {
			return Header{}, nil, nil, fmt.Errorf("wal: checkpoint crc mismatch")
		}
	}
	return h, ckpt, scanRing(img[ringBase:], h), nil
}
