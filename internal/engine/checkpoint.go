package engine

import (
	"encoding/binary"
	"fmt"

	"dlsm/internal/keys"
	"dlsm/internal/memnode"
	"dlsm/internal/memtable"
	"dlsm/internal/rdma"
	"dlsm/internal/sstable"
	"dlsm/internal/version"
)

// Checkpoint returns a transactionally consistent snapshot of the index
// metadata (§VIII): the sequence horizon plus every level's table metas
// (including their cached indexes and filters). Table data itself stays in
// remote memory, which survives a compute-node failure. MemTable contents
// are not covered: call Flush first, or — since this PR — open the DB with
// Options.Durability set, which layers the remote write-ahead log
// (internal/wal) on top so Recover re-applies every acknowledged write
// after the last checkpoint horizon automatically.
func (db *DB) Checkpoint() []byte {
	v := db.vs.Current()
	defer v.Unref()
	return encodeCheckpointAt(v, db.seq.Load(), false)
}

// encodeCheckpointAt serializes one version at one sequence horizon. slim
// drops the cached index and filter bytes from each meta — the WAL's
// checkpoint blobs use it to stay within their slot capacity; recovery
// reloads both from the table footers in remote memory.
func encodeCheckpointAt(v *version.Version, seq uint64, slim bool) []byte {
	enc := sstable.EncodeMeta
	if slim {
		enc = sstable.EncodeMetaSlim
	}
	b := binary.LittleEndian.AppendUint64(nil, seq)
	for level := 0; level < version.NumLevels; level++ {
		files := v.Levels[level]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(files)))
		for _, f := range files {
			e := enc(f.Meta)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(e)))
			b = append(b, e...)
		}
	}
	return b
}

// OpenFromCheckpoint reconstructs a DB on a fresh compute node from a
// checkpoint taken before the previous compute node went away. The memory
// node server (and the table bytes in its regions) must be the ones the
// checkpoint refers to.
func OpenFromCheckpoint(cn *rdma.Node, srv *memnode.Server, opts Options, b Binding, checkpoint []byte) (*DB, error) {
	files, seq, err := decodeCheckpoint(checkpoint)
	if err != nil {
		return nil, err
	}
	db, err := Open(cn, srv, opts, b)
	if err != nil {
		return nil, err
	}
	db.installCheckpoint(files, seq)
	if db.wal != nil {
		// Make the slot's recovery baseline the checkpoint just installed;
		// until this lands, a crash would recover an empty (fresh-epoch) DB.
		if err := db.wal.RefreshNow(); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// installCheckpoint installs a decoded checkpoint into a freshly opened
// DB: the sequence horizon, a MemTable starting above it (so recovered
// re-execution and new writes never collide with checkpointed sequence
// numbers), and every level's files.
func (db *DB) installCheckpoint(files [version.NumLevels][]*sstable.Meta, seq uint64) {
	db.seq.Store(seq)
	db.switchMu.Lock()
	fresh := memtable.New(db.memID, keys.Seq(seq+1), keys.Seq(seq+1+db.seqRangeLen()))
	db.cur.Store(fresh)
	db.recent = []*memtable.MemTable{fresh}
	db.switchMu.Unlock()

	edit := version.NewEdit()
	var created []*version.File
	for level, metas := range files {
		for _, m := range metas {
			f := version.NewFile(m)
			created = append(created, f)
			edit.Add(level, f)
		}
	}
	db.vs.Apply(edit)
	for _, f := range created {
		db.vs.UnrefFile(f)
	}
	db.l0count.Store(int32(db.currentL0Count()))
}

// decodeCheckpoint parses a checkpoint blob defensively: recovery feeds
// it bytes read back from remote memory, so every length is validated
// against the remaining input before use (a corrupt count or size must
// produce an error, never an allocation explosion or a panic), meta
// decoding must consume its declared bytes exactly, and trailing garbage
// after the last level is rejected.
func decodeCheckpoint(b []byte) (files [version.NumLevels][]*sstable.Meta, seq uint64, err error) {
	if len(b) < 8 {
		return files, 0, fmt.Errorf("engine: short checkpoint (%d bytes)", len(b))
	}
	seq = binary.LittleEndian.Uint64(b)
	b = b[8:]
	for level := 0; level < version.NumLevels; level++ {
		if len(b) < 4 {
			return files, 0, fmt.Errorf("engine: truncated checkpoint at level %d", level)
		}
		n := int64(binary.LittleEndian.Uint32(b))
		b = b[4:]
		// Each meta needs at least its 4-byte length prefix, so a count
		// beyond the remaining bytes cannot be honest.
		if n > int64(len(b))/4 {
			return files, 0, fmt.Errorf("engine: checkpoint level %d claims %d metas in %d bytes", level, n, len(b))
		}
		for i := int64(0); i < n; i++ {
			if len(b) < 4 {
				return files, 0, fmt.Errorf("engine: truncated checkpoint meta")
			}
			sz := int64(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if sz > int64(len(b)) {
				return files, 0, fmt.Errorf("engine: checkpoint meta claims %d of %d bytes", sz, len(b))
			}
			m, rest, err := sstable.DecodeMeta(b[:sz])
			if err != nil {
				return files, 0, fmt.Errorf("engine: checkpoint meta: %w", err)
			}
			if len(rest) != 0 {
				return files, 0, fmt.Errorf("engine: checkpoint meta has %d trailing bytes", len(rest))
			}
			files[level] = append(files[level], m)
			b = b[sz:]
		}
	}
	if len(b) != 0 {
		return files, 0, fmt.Errorf("engine: checkpoint has %d trailing bytes", len(b))
	}
	return files, seq, nil
}
