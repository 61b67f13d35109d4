package engine

import (
	"encoding/binary"
	"fmt"
	"time"

	"dlsm/internal/flush"
	"dlsm/internal/rdma"
	"dlsm/internal/remote"
	"dlsm/internal/rpc"
	"dlsm/internal/sstable"
)

// fsRKeySentinel marks Meta.Data addresses that are tmpfs file ids rather
// than registered-memory offsets (TransportTmpfsRPC).
const fsRKeySentinel = ^uint32(0)

// fsCallOverhead is the per-call CPU cost of going through a file-system
// layer instead of raw verbs (TransportFS): the software overhead the
// paper's port pays on every read and write (§XI-A).
const fsCallOverhead = 600 * time.Nanosecond

// newTableDest allocates space for a new table of at most capacity bytes
// and returns its remote address. For the tmpfs transport the "address" is
// a fresh file id.
func (db *DB) newTableDest(capacity int64) (rdma.RemoteAddr, error) {
	if db.opts.Transport == TransportTmpfsRPC {
		// Namespace file ids by DB instance: many shards share one tmpfs.
		id := db.instanceID<<40 | db.vs.NextFileID()
		return rdma.RemoteAddr{Node: db.mn.ID, RKey: fsRKeySentinel, Off: int(id)}, nil
	}
	off, err := db.alloc.Alloc(int(capacity))
	if err != nil {
		return rdma.RemoteAddr{}, fmt.Errorf("engine: remote allocation failed: %w", err)
	}
	return db.dataMR.Addr(int(off)), nil
}

// flushBufSize is the registered staging buffer of every table sink: the
// flush pipeline's per-buffer size and the synchronous sinks' write unit.
const flushBufSize = 1 << 20

// newSink creates the byte sink that writes a table to dest using the
// worker's thread-local resources.
func (db *DB) newSink(w *bgWorker, dest rdma.RemoteAddr, capacity int64) sstable.Sink {
	switch db.opts.Transport {
	case TransportTmpfsRPC:
		return &tmpfsSink{cli: w.client(), fileID: uint64(dest.Off), chunk: 256 << 10}
	case TransportFS:
		// The FS port writes synchronously with an extra user->fs copy.
		return &fsSink{
			syncSink: syncSink{qp: w.qp, dest: dest, cap: capacity, node: db.cn, bufSize: flushBufSize},
			db:       db,
		}
	default:
		if db.opts.AsyncFlush {
			w.pipeline.Reset(dest, int(capacity))
			return w.pipeline
		}
		return &syncSink{qp: w.qp, dest: dest, cap: capacity, node: db.cn, bufSize: flushBufSize}
	}
}

// shrinkExtent trims a freshly written table's extent to its actual size,
// but never below the engine's uniform extent class: keeping all table
// extents in one buddy class means any freed extent immediately serves the
// next table, preventing live/free checkerboard fragmentation. tmpfs files
// size themselves.
func (db *DB) shrinkExtent(dest rdma.RemoteAddr, capacity int64, res sstable.BuildResult) int64 {
	actual := int(res.Size) + res.IndexLen + res.FilterLen
	if db.opts.Transport == TransportTmpfsRPC {
		return int64(actual)
	}
	if class := int(db.extentClass()); actual < class {
		actual = class
	}
	return db.alloc.Shrink(int64(dest.Off), actual)
}

// extentClass is the uniform table extent size: TableSize of data plus
// headroom for the index/filter footer (~10% at the paper's 420B entries)
// and rotation slack.
func (db *DB) extentClass() int64 {
	return remote.ClassSize(int(db.opts.TableSize+db.opts.TableSize/4) + 128<<10)
}

// effectiveTableSize is the per-output data budget: the extent class minus
// footer headroom, so tables fill their buddy blocks without splitting.
func (db *DB) effectiveTableSize() int64 { return db.opts.TableSize }

// freeTable releases a table's storage if this node owns it; memory-node
// owned extents are batched to the "free" RPC by the GC worker.
func (db *DB) freeTableLocal(m *sstable.Meta) {
	switch db.opts.Transport {
	case TransportTmpfsRPC:
		// Freed via fs_free RPC by the GC worker.
	default:
		db.alloc.Free(int64(m.Data.Off), int(m.Extent))
	}
}

// releaseTableDest returns a failed build's extent before any table meta
// exists for it. tmpfs partial files route through the GC batch path;
// native extents go straight back to the compute-controlled allocator.
func (db *DB) releaseTableDest(dest rdma.RemoteAddr, capacity int64) {
	if dest.RKey == fsRKeySentinel {
		db.gcCh.TrySend(&sstable.Meta{Data: dest, Extent: capacity})
		return
	}
	db.alloc.Free(int64(dest.Off), int(capacity))
}

// newFetcher builds the read-side Fetcher for a table. scratch is a
// per-thread growable registered buffer shared across the thread's
// fetchers; cli lazily provides an RPC client for tmpfs reads.
func (db *DB) newFetcher(meta *sstable.Meta, qp *rdma.QP, scratch **rdma.MemoryRegion, cli func() *rpc.Client) sstable.Fetcher {
	if meta.Data.RKey == fsRKeySentinel {
		return &tmpfsFetcher{cli: cli(), fileID: uint64(meta.Data.Off)}
	}
	f := &nativeFetcher{qp: qp, base: meta.Data, scratch: scratch}
	if db.opts.Transport == TransportFS {
		return &fsFetcher{inner: f, db: db}
	}
	return f
}

// nativeFetcher is a QP fetcher sharing the thread's scratch buffer.
type nativeFetcher struct {
	qp      *rdma.QP
	base    rdma.RemoteAddr
	scratch **rdma.MemoryRegion
}

func (f *nativeFetcher) ReadAt(off, n int) ([]byte, error) {
	mr := *f.scratch
	if mr == nil || mr.Size() < n {
		size := 256 << 10
		for size < n {
			size *= 2
		}
		mr = f.qp.Node().Register(size)
		*f.scratch = mr
	}
	if err := f.qp.ReadSync(mr, 0, f.base.Add(off), n); err != nil {
		return nil, err
	}
	return mr.Bytes(0, n), nil
}

// fsFetcher adds the file-system layer's per-call and per-byte copy costs.
type fsFetcher struct {
	inner *nativeFetcher
	db    *DB
}

func (f *fsFetcher) ReadAt(off, n int) ([]byte, error) {
	f.db.charge(fsCallOverhead + time.Duration(float64(n)*f.db.opts.Costs.MemcpyByte))
	return f.inner.ReadAt(off, n)
}

// tmpfsFetcher reads file bytes via the two-sided fs_read RPC — Nova-LSM's
// long read path (§XI-C2).
type tmpfsFetcher struct {
	cli    *rpc.Client
	fileID uint64
	buf    []byte
}

func (f *tmpfsFetcher) ReadAt(off, n int) ([]byte, error) {
	args := make([]byte, 20)
	binary.LittleEndian.PutUint64(args, f.fileID)
	binary.LittleEndian.PutUint64(args[8:], uint64(off))
	binary.LittleEndian.PutUint32(args[16:], uint32(n))
	b, err := f.cli.Call("fs_read", args)
	if err != nil {
		return nil, err
	}
	f.buf = b
	return f.buf, nil
}

// syncSink writes each filled buffer with a blocking RDMA write — the
// flush path of the ports, without §X-C's asynchronous overlap.
type syncSink struct {
	qp      *rdma.QP
	node    *rdma.Node
	dest    rdma.RemoteAddr
	cap     int64
	bufSize int
	buf     *rdma.MemoryRegion
	n       int
	off     int
	err     error
}

func (s *syncSink) Write(p []byte) {
	if s.buf == nil {
		if s.bufSize <= 0 {
			s.bufSize = flush.DefaultBufSize
		}
		s.buf = s.node.Register(s.bufSize)
	}
	for len(p) > 0 {
		n := copy(s.buf.Bytes(s.n, s.bufSize-s.n), p)
		s.n += n
		p = p[n:]
		if s.n == s.bufSize {
			s.flush()
		}
	}
}

func (s *syncSink) flush() {
	if s.n == 0 || s.err != nil {
		return
	}
	if int64(s.off+s.n) > s.cap {
		s.err = fmt.Errorf("engine: table overflows extent (%d > %d)", s.off+s.n, s.cap)
		return
	}
	if err := s.qp.WriteSync(s.buf, 0, s.dest.Add(s.off), s.n); err != nil {
		s.err = err
		return
	}
	s.off += s.n
	s.n = 0
}

func (s *syncSink) Finish() error {
	s.flush()
	return s.err
}

// fsSink adds the FS port's extra copy per byte and per-call overhead.
type fsSink struct {
	syncSink
	db *DB
}

func (s *fsSink) Write(p []byte) {
	s.db.charge(time.Duration(float64(len(p)) * s.db.opts.Costs.MemcpyByte))
	s.syncSink.Write(p)
}

func (s *fsSink) Finish() error {
	s.db.charge(fsCallOverhead)
	return s.syncSink.Finish()
}

// tmpfsSink streams table bytes to a memory-node tmpfs file in chunked
// fs_write RPCs (the Nova-LSM flush path).
type tmpfsSink struct {
	cli    *rpc.Client
	fileID uint64
	chunk  int
	buf    []byte
	off    int
	err    error
}

func (s *tmpfsSink) Write(p []byte) {
	s.buf = append(s.buf, p...)
	for len(s.buf) >= s.chunk {
		s.send(s.buf[:s.chunk])
		s.buf = s.buf[s.chunk:]
	}
}

func (s *tmpfsSink) send(p []byte) {
	if s.err != nil {
		return
	}
	args := make([]byte, 16, 16+len(p))
	binary.LittleEndian.PutUint64(args, s.fileID)
	binary.LittleEndian.PutUint64(args[8:], uint64(s.off))
	args = append(args, p...)
	if _, err := s.cli.Call("fs_write", args); err != nil {
		s.err = err
		return
	}
	s.off += len(p)
}

func (s *tmpfsSink) Finish() error {
	if len(s.buf) > 0 {
		s.send(s.buf)
		s.buf = nil
	}
	return s.err
}
