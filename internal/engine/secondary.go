package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/telemetry"
	"dlsm/internal/version"
	"dlsm/internal/wal"
)

// secondaryState is the checkpoint-refresh machinery of a read-only
// secondary: its own queue pair to the shard's WAL slot plus a scratch
// region big enough for the header and one checkpoint blob.
type secondaryState struct {
	slot    memnode.LogSlot
	qp      *rdma.QP
	scratch *rdma.MemoryRegion
	ckptCap int

	// mu single-flights refreshes (a sim mutex: the critical section
	// blocks on RDMA reads). lastRefresh is the virtual time of the last
	// successful refresh, read lock-free by the staleness hooks.
	mu          *sim.Mutex
	lastRefresh atomic.Int64

	refreshes *telemetry.Counter
	added     *telemetry.Counter
	dropped   *telemetry.Counter
	staleness *telemetry.Gauge
}

// OpenSecondary attaches a read-only secondary to the shard whose primary
// opened the log slot b names with Durability enabled. The secondary
// serves Gets and scans directly from the remote SSTables through its own
// compute-local state — version set, hot-KV cache, readahead pipelines —
// and never writes: no WAL, no flush or compaction workers, no GC (the
// primary owns the remote extents).
//
// The view is the primary's last published WAL checkpoint, refreshed on
// demand (RefreshView) or per read (ReadOptions.MaxStaleness): bounded
// staleness, not read-your-writes. Writes become visible here once the
// primary flushes them into tables a checkpoint covers (Flush +
// PublishCheckpoint forces that synchronously).
func OpenSecondary(cn *rdma.Node, srv *memnode.Server, opts Options, b Binding) (*DB, error) {
	ld, err := loadSlot(cn, srv, b, true)
	if err != nil {
		return nil, err
	}
	slot, qp := ld.slot, ld.qp
	ckptCap, _, _, err := wal.Geometry(slot.Size)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("engine: log slot geometry: %w", err)
	}
	db, err := openMode(cn, srv, opts, b, false, true)
	if err != nil {
		qp.Close()
		return nil, err
	}
	db.installCheckpoint(ld.files, ld.seq)

	sec := &secondaryState{
		slot:    slot,
		qp:      qp,
		scratch: cn.Register(wal.HeaderSize + ckptCap),
		ckptCap: ckptCap,
		mu:      sim.NewMutex(db.env),
		// Metrics register here, not in newStats: primaries never carry
		// secondary.* names, so existing telemetry output is unchanged.
		refreshes: db.tel.Counter("secondary.refreshes"),
		added:     db.tel.Counter("secondary.tables.added"),
		dropped:   db.tel.Counter("secondary.tables.dropped"),
		staleness: db.tel.Gauge("secondary.staleness_ns"),
	}
	sec.lastRefresh.Store(int64(db.env.Now()))
	db.sec = sec
	return db, nil
}

// ReadOnly reports whether this DB is a read-only secondary.
func (db *DB) ReadOnly() bool { return db.readOnly }

// ViewAge returns how far in the virtual past this secondary's view was
// last refreshed; 0 on primaries, whose view is always current.
func (db *DB) ViewAge() time.Duration {
	if db.sec == nil {
		return 0
	}
	return time.Duration(int64(db.env.Now()) - db.sec.lastRefresh.Load())
}

// PublishCheckpoint synchronously publishes the current checkpoint blob
// and covered horizon to the WAL slot (the trimmer does the same thing
// asynchronously after each flush). Call it after Flush to make every
// flushed write observable by secondaries' next RefreshView.
func (db *DB) PublishCheckpoint() error {
	if db.wal == nil {
		return fmt.Errorf("engine: PublishCheckpoint requires Options.Durability")
	}
	return db.wal.RefreshNow()
}

// RefreshView re-reads the shard's WAL checkpoint slot and installs the
// primary's latest published view: new tables enter (footers reloaded
// from remote memory), compacted-away tables leave (dropping their local
// cache entries only — the primary owns reclamation), and the sequence
// horizon advances. Tables present in both views keep their live *File,
// so cached indexes, filters and hot-KV entries survive the refresh.
func (db *DB) RefreshView() error {
	if db.sec == nil {
		return fmt.Errorf("engine: RefreshView on a primary")
	}
	return db.sec.refresh(db)
}

// refreshIfOlder refreshes only when the view is older than bound
// (the ReadOptions.MaxStaleness hook).
func (sec *secondaryState) refreshIfOlder(db *DB, bound time.Duration) error {
	if time.Duration(int64(db.env.Now())-sec.lastRefresh.Load()) <= bound {
		return nil
	}
	return sec.refresh(db)
}

// refresh single-flights one view refresh: concurrent callers that were
// waiting on the mutex adopt the refresh that just completed.
func (sec *secondaryState) refresh(db *DB) error {
	before := sec.lastRefresh.Load()
	sec.mu.Lock()
	defer sec.mu.Unlock()
	if sec.lastRefresh.Load() != before {
		return nil // someone refreshed while we waited
	}

	_, blob, err := sec.readCheckpoint(db)
	if err != nil {
		return err
	}
	// An empty blob means the primary has not published a checkpoint yet:
	// keep the current view and only record the refresh attempt's time.
	var files [version.NumLevels][]*sstable.Meta
	seq := db.seq.Load()
	if len(blob) > 0 {
		if files, seq, err = decodeCheckpoint(blob); err != nil {
			return fmt.Errorf("engine: refresh checkpoint: %w", err)
		}
	}
	added, dropped, err := db.applyView(files, seq, len(blob) > 0)
	if err != nil {
		return err
	}

	now := int64(db.env.Now())
	sec.staleness.Set(now - sec.lastRefresh.Load())
	sec.lastRefresh.Store(now)
	sec.refreshes.Inc()
	sec.added.Add(int64(added))
	sec.dropped.Add(int64(dropped))
	return nil
}

// readCheckpoint reads a consistent (header, active checkpoint blob) pair
// with two one-sided reads, retrying when a concurrent header flip lands
// between them (the CRC in the header detects the torn pair; the primary
// alternates slots, so a blob stays stable for a full flip cycle).
func (sec *secondaryState) readCheckpoint(db *DB) (wal.Header, []byte, error) {
	const attempts = 8
	for i := 0; i < attempts; i++ {
		if err := sec.qp.ReadSync(sec.scratch, 0, sec.slot.Addr, wal.HeaderSize); err != nil {
			return wal.Header{}, nil, err
		}
		h, err := wal.DecodeHeader(append([]byte(nil), sec.scratch.Bytes(0, wal.HeaderSize)...))
		if err != nil {
			return wal.Header{}, nil, fmt.Errorf("engine: refresh header: %w", err)
		}
		if h.CkptLen == 0 {
			return h, nil, nil
		}
		if int(h.CkptLen) > sec.ckptCap || h.CkptSlot > 1 {
			return wal.Header{}, nil, fmt.Errorf("engine: refresh header claims %d-byte checkpoint in slot %d (cap %d)", h.CkptLen, h.CkptSlot, sec.ckptCap)
		}
		if err := sec.qp.ReadSync(sec.scratch, wal.HeaderSize, sec.slot.Addr.Add(h.CkptOffset()), int(h.CkptLen)); err != nil {
			return wal.Header{}, nil, err
		}
		blob := append([]byte(nil), sec.scratch.Bytes(wal.HeaderSize, int(h.CkptLen))...)
		if h.VerifyCheckpoint(blob) {
			return h, blob, nil
		}
	}
	return wal.Header{}, nil, fmt.Errorf("engine: checkpoint kept flipping across %d read attempts", attempts)
}

// applyView diffs the decoded checkpoint against the current version and
// applies the delta. Files are matched by (ID, level, data offset) — not
// ID alone, because a recovered primary restarts its ID counter and can
// mint an ID an older checkpoint already used for a different extent.
func (db *DB) applyView(files [version.NumLevels][]*sstable.Meta, seq uint64, haveBlob bool) (added, dropped int, err error) {
	type fkey struct {
		id    uint64
		level int
		off   int
	}
	cur := db.vs.Current()
	defer cur.Unref()

	existing := make(map[fkey]*version.File)
	for level, fs := range cur.Levels {
		for _, f := range fs {
			existing[fkey{f.ID, level, f.Data.Off}] = f
		}
	}
	edit := version.NewEdit()
	var created []*version.File
	var fresh [version.NumLevels][]*sstable.Meta
	want := make(map[fkey]bool, len(existing))
	for level, metas := range files {
		for _, m := range metas {
			k := fkey{m.ID, level, m.Data.Off}
			want[k] = true
			if _, ok := existing[k]; ok {
				continue // unchanged: keep the live file and its cached footer
			}
			fresh[level] = append(fresh[level], m)
			f := version.NewFile(m)
			created = append(created, f)
			edit.Add(level, f)
			added++
		}
	}
	if haveBlob {
		for k, f := range existing {
			if !want[k] {
				edit.Delete(f)
				dropped++
			}
		}
	}
	if added > 0 {
		// Checkpoint metas are slim; fetch the new tables' indexes and
		// filters from their footers before readers can reach them.
		if err := reloadFooters(db.cn, db.sec.qp, fresh); err != nil {
			for _, f := range created {
				db.vs.UnrefFile(f)
			}
			return 0, 0, fmt.Errorf("engine: reloading table footers: %w", err)
		}
	}
	if added > 0 || dropped > 0 {
		db.vs.Apply(edit)
		for _, f := range created {
			db.vs.UnrefFile(f)
		}
		db.l0count.Store(int32(db.currentL0Count()))
	}
	// The horizon only moves forward: a stale blob read concurrently with
	// the primary's recovery must not rewind visible sequence numbers.
	for {
		old := db.seq.Load()
		if seq <= old || db.seq.CompareAndSwap(old, seq) {
			break
		}
	}
	return added, dropped, nil
}

// close releases the secondary's fabric resources.
func (sec *secondaryState) close(cn *rdma.Node) {
	sec.qp.Close()
	cn.Deregister(sec.scratch)
}
