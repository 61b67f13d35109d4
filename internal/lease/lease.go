// Package lease implements per-shard write-ownership for multi-compute
// scale-out: a small ownership table in memory-node DRAM (one 64-byte
// entry per shard, carved out by memnode.OpenLease) that compute nodes
// read and CAS with one-sided RDMA — the same slot-header pattern as the
// remote write-ahead log, so ownership changes survive any compute-node
// crash and cost the memory node zero CPU.
//
// Exactly one compute node holds the write lease of a shard at a time.
// Every acquisition — voluntary or takeover — bumps the entry's epoch, and
// the holder wires the packed (epoch, holder) word into its WAL as a fence
// (wal.Config.Fence/FenceWord): each log doorbell is acknowledged only
// after a CAS verifies the word is unchanged, so the instant a new owner
// takes over, a deposed owner's in-flight appends stop acknowledging with
// wal.ErrFenced. Combined with the WAL's ring-epoch + LSN fencing, a
// takeover therefore observes every write the old owner ever acknowledged.
//
// # Entry layout (64 bytes)
//
//	off  0: word u64     — epoch<<16 | (holder+1); low 16 bits 0 = free
//	off  8: magic u32    — "dLSE"
//	off 12: version u32
//	off 16: reserved     — zero
//
// Only the word at offset 0 is ever CAS'd; magic and version are stamped
// once by the memory node when the entry is created.
package lease

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

const (
	// Magic identifies an initialized lease entry ("dLSE").
	Magic = 0x644c5345
	// Version is the entry format version.
	Version = 1
	// EntrySize is the fixed entry length.
	EntrySize = 64

	// maxHolder bounds the holder id to the word's 16 low bits (minus the
	// +1 bias that distinguishes holder 0 from "free").
	maxHolder = 0xFFFE
	// maxEpoch bounds the epoch to the word's 48 high bits.
	maxEpoch = 1<<48 - 1
)

// ErrHeld is returned by Acquire when another compute node holds the lease.
var ErrHeld = errors.New("lease: held by another compute node")

// ErrNotHeld is returned by Release when the caller no longer holds the
// lease (a takeover deposed it); the lease word was left untouched.
var ErrNotHeld = errors.New("lease: not held (deposed by takeover)")

// SlotKey names the lease entry of (owner, shard) in the memory node's
// lease table — the same identity scheme as the WAL's log slots, salted
// differently so the two tables never collide.
func SlotKey(owner, shard int) uint64 {
	return sim.Mix64(0x1EA5E0D, uint64(owner), uint64(shard)) | 1
}

// Lease is proof of ownership at one epoch. Its packed Word is the WAL
// fence: while the remote entry still holds it, the holder's appends ack.
type Lease struct {
	Epoch  uint64
	Holder int
}

// Pack builds the CAS word: epoch in the high 48 bits, holder+1 in the
// low 16 (0 = free). held=false ignores holder and leaves the low bits 0.
func Pack(epoch uint64, holder int, held bool) uint64 {
	if epoch > maxEpoch {
		panic("lease: epoch overflow")
	}
	w := epoch << 16
	if held {
		if holder < 0 || holder > maxHolder {
			panic(fmt.Sprintf("lease: holder %d out of range", holder))
		}
		w |= uint64(holder) + 1
	}
	return w
}

// Unpack splits a CAS word into (epoch, holder, held).
func Unpack(w uint64) (epoch uint64, holder int, held bool) {
	epoch = w >> 16
	if low := w & 0xFFFF; low != 0 {
		return epoch, int(low - 1), true
	}
	return epoch, 0, false
}

// Word returns the lease's packed CAS word (the WAL fence value).
func (l Lease) Word() uint64 { return Pack(l.Epoch, l.Holder, true) }

// Entry is one decoded ownership-table entry.
type Entry struct {
	Epoch  uint64
	Holder int
	Held   bool
}

// DecodeEntry parses a raw lease entry as read back from remote memory,
// validating magic, version and the reserved tail defensively (the bytes
// cross the fabric; corruption must produce an error, never a panic).
func DecodeEntry(b []byte) (Entry, error) {
	if len(b) < 16 {
		return Entry{}, fmt.Errorf("lease: short entry: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[8:]); m != Magic {
		return Entry{}, fmt.Errorf("lease: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[12:]); v != Version {
		return Entry{}, fmt.Errorf("lease: unsupported version %d", v)
	}
	n := len(b)
	if n > EntrySize {
		n = EntrySize
	}
	for i := 16; i < n; i++ {
		if b[i] != 0 {
			return Entry{}, fmt.Errorf("lease: reserved byte %d is %#x", i, b[i])
		}
	}
	epoch, holder, held := Unpack(binary.LittleEndian.Uint64(b))
	return Entry{Epoch: epoch, Holder: holder, Held: held}, nil
}

// EncodeEntry serializes an entry (tests and the fuzz corpus).
func EncodeEntry(e Entry) []byte {
	b := make([]byte, EntrySize)
	binary.LittleEndian.PutUint64(b, Pack(e.Epoch, e.Holder, e.Held))
	binary.LittleEndian.PutUint32(b[8:], Magic)
	binary.LittleEndian.PutUint32(b[12:], Version)
	return b
}

// Client drives one shard's lease entry from one compute node over its
// own queue pair. Not safe for concurrent use (like engine sessions).
type Client struct {
	cn     *rdma.Node
	qp     *rdma.QP
	slot   rdma.RemoteAddr
	holder int
	mr     *rdma.MemoryRegion

	// Mirror write-through (SetMirror): every successful claim or release
	// re-posts the new word to the replica's lease table, so a takeover
	// still finds the current epoch after the primary memory node dies.
	mirrorQP   *rdma.QP
	mirrorSlot rdma.RemoteAddr

	acquires  *telemetry.Counter
	takeovers *telemetry.Counter
	releases  *telemetry.Counter
	conflicts *telemetry.Counter
	held      *telemetry.Gauge
}

// NewClient connects compute node cn to the lease entry at slot on host.
// holder is cn's stable logical identity (the compute index — it must
// survive restarts, so a recovered node recognizes its own leases).
// Metrics register lazily on the fabric registry, so deployments that
// never create a lease client keep byte-identical telemetry output.
func NewClient(cn *rdma.Node, host *rdma.Node, slot rdma.RemoteAddr, holder int) *Client {
	tel := cn.Fabric().Telemetry()
	return &Client{
		cn:        cn,
		qp:        cn.NewQP(host),
		slot:      slot,
		holder:    holder,
		mr:        cn.Register(EntrySize),
		acquires:  tel.Counter("lease.acquires"),
		takeovers: tel.Counter("lease.takeovers"),
		releases:  tel.Counter("lease.releases"),
		conflicts: tel.Counter("lease.conflicts"),
		held:      tel.Gauge("lease.held"),
	}
}

// SetMirror enables best-effort write-through of the lease word to a
// replica entry at slot on host (internal/repl). Mirroring is asynchronous
// with respect to correctness: the primary entry stays the single CAS
// arbiter, and a stale replica word is benign — after the primary memory
// node dies, the fence CAS against it can only fail, so a deposed holder
// still never acknowledges; the mirrored word only needs to preserve the
// epoch high-water mark for the promoted table's next takeover to bump past.
func (c *Client) SetMirror(host *rdma.Node, slot rdma.RemoteAddr) {
	c.mirrorQP = c.cn.NewQP(host)
	c.mirrorSlot = slot
}

// mirrorWord re-posts a just-CAS'd word to the replica entry, best effort:
// a dead replica degrades redundancy, never the claim that already landed.
func (c *Client) mirrorWord(w uint64) {
	if c.mirrorQP == nil {
		return
	}
	binary.LittleEndian.PutUint64(c.mr.Bytes(0, 8), w)
	_ = c.mirrorQP.WriteSync(c.mr, 0, c.mirrorSlot, 8)
}

// Holder returns the client's logical identity.
func (c *Client) Holder() int { return c.holder }

// Addr returns the remote lease entry address (the WAL fence target).
func (c *Client) Addr() rdma.RemoteAddr { return c.slot }

// Observe reads the entry without modifying it.
func (c *Client) Observe() (Entry, error) {
	if err := c.qp.ReadSync(c.mr, 0, c.slot, EntrySize); err != nil {
		return Entry{}, err
	}
	return DecodeEntry(append([]byte(nil), c.mr.Bytes(0, EntrySize)...))
}

// Acquire claims a free lease at a bumped epoch. A lease held by another
// compute node returns ErrHeld (use Takeover to depose it); a lease this
// holder already owns is re-acquired at a fresh epoch, which fences any
// forgotten older handle.
func (c *Client) Acquire() (Lease, error) {
	for {
		e, err := c.Observe()
		if err != nil {
			return Lease{}, err
		}
		if e.Held && e.Holder != c.holder {
			c.conflicts.Inc()
			return Lease{}, fmt.Errorf("%w (holder %d, epoch %d)", ErrHeld, e.Holder, e.Epoch)
		}
		l, swapped, err := c.claim(e)
		if err != nil {
			return Lease{}, err
		}
		if swapped {
			c.acquires.Inc()
			return l, nil
		}
		c.conflicts.Inc() // lost a race; re-observe and retry
	}
}

// Takeover claims the lease at a bumped epoch regardless of the current
// holder. The moment the CAS lands, the deposed holder's next WAL commit
// fence fails, so nothing it has not yet acknowledged ever will be —
// reading the log slot after Takeover observes every acknowledged write.
func (c *Client) Takeover() (Lease, error) {
	for {
		e, err := c.Observe()
		if err != nil {
			return Lease{}, err
		}
		l, swapped, err := c.claim(e)
		if err != nil {
			return Lease{}, err
		}
		if swapped {
			c.takeovers.Inc()
			return l, nil
		}
		c.conflicts.Inc()
	}
}

// claim CASes the observed entry to (epoch+1, self).
func (c *Client) claim(e Entry) (Lease, bool, error) {
	next := Lease{Epoch: e.Epoch + 1, Holder: c.holder}
	_, swapped, err := c.qp.CompareSwapSync(c.slot, Pack(e.Epoch, e.Holder, e.Held), next.Word())
	if err != nil {
		return Lease{}, false, err
	}
	if swapped {
		c.held.Set(1)
		c.mirrorWord(next.Word())
	}
	return next, swapped, nil
}

// Release frees the lease, keeping its epoch (so the next acquirer still
// bumps past every word this holder ever fenced with). A holder deposed
// by takeover gets ErrNotHeld and the entry is left untouched.
func (c *Client) Release(l Lease) error {
	_, swapped, err := c.qp.CompareSwapSync(c.slot, l.Word(), Pack(l.Epoch, 0, false))
	if err != nil {
		return err
	}
	if !swapped {
		return ErrNotHeld
	}
	c.releases.Inc()
	c.held.Set(0)
	c.mirrorWord(Pack(l.Epoch, 0, false))
	return nil
}

// Close releases the client's fabric resources (not the lease — call
// Release first for a clean handback).
func (c *Client) Close() {
	c.qp.Close()
	if c.mirrorQP != nil {
		c.mirrorQP.Close()
	}
	c.cn.Deregister(c.mr)
}
