package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dlsm/internal/compactor"
	"dlsm/internal/flush"
	"dlsm/internal/keys"
	"dlsm/internal/memnode"
	"dlsm/internal/memtable"
	"dlsm/internal/rdma"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
	"dlsm/internal/version"
)

// bgWorker is the thread-local context of one background thread (flusher or
// compaction worker): its own QP, flush pipeline, scratch buffer and RPC
// client, per the paper's RDMA manager (§X-B).
type bgWorker struct {
	db       *DB
	qp       *rdma.QP
	pipeline *flush.Pipeline
	scratch  *rdma.MemoryRegion
	cli      *rpc.Client
	largeCli *rpc.Client // compaction RPC (write-with-imm wakeups)
}

func (db *DB) newBGWorker() *bgWorker {
	w := &bgWorker{db: db, qp: db.cn.NewQP(db.mn)}
	w.pipeline = flush.NewPipeline(w.qp, flushBufSize)
	w.pipeline.SetMetrics(db.m.flush)
	return w
}

func (w *bgWorker) client() *rpc.Client {
	if w.cli == nil {
		w.cli = rpc.NewClient(w.db.cn, w.db.mn, nil, 1<<20)
	}
	return w.cli
}

// largeClient's reply region starts small: remoteJob sizes it for the metas
// each call brings back (GrowReply), not for a worst case per thread.
func (w *bgWorker) largeClient() *rpc.Client {
	if w.largeCli == nil {
		w.largeCli = rpc.NewClient(w.db.cn, w.db.mn, w.db.notifier, 64<<10)
	}
	return w.largeCli
}

func (w *bgWorker) close() {
	w.qp.Close()
	if w.cli != nil {
		w.cli.Close()
	}
	if w.largeCli != nil {
		w.largeCli.Close()
	}
}

// --- flushing ---------------------------------------------------------------

func (db *DB) flusher() {
	w := db.newBGWorker()
	defer w.close()
	for {
		mt, ok := db.flushCh.Recv()
		if !ok {
			return
		}
		db.flushOne(w, mt)
	}
}

// flushOne serializes one immutable MemTable into a new L0 table (§X-C).
func (db *DB) flushOne(w *bgWorker, mt *memtable.MemTable) {
	sp := db.m.flushLat.Span(db.m.clock)
	defer sp.End()
	// Quiesce: wait until no writer can still insert into mt.
	_, hi := mt.SeqRange()
	for !mt.QuiesceDone() || !db.noClaimsBelow(uint64(hi)) {
		if db.cn.Crashed() {
			// A crashed writer's claim never clears. Drop the table
			// instead of spinning: with Durability on, Recover replays the
			// remote log; without it the data is lost either way.
			db.finishFlush(mt, nil)
			return
		}
		db.env.Sleep(200 * time.Nanosecond)
	}

	if mt.Empty() {
		db.finishFlush(mt, nil)
		return
	}

	// Capacity covers the data region plus the index+filter footer: per
	// entry the index stores the internal key plus 14 bytes of offsets,
	// block formats add up to ~10 bytes/entry of wrapping, and the bloom
	// filter is ~10 bits/key.
	capacity := mt.ApproximateSize() + mt.KeyBytes() + int64(mt.Len())*24 + 8<<10
	var meta *sstable.Meta
	// A DB with a log has the memory node build the table from the log ring
	// it already holds; one without has nothing there to build from.
	nearData := db.flushesNearData()
	for attempt := 1; ; attempt++ {
		var m *sstable.Meta
		var err error
		if nearData {
			if m, err = db.flushRemote(w, mt, capacity); err != nil {
				// Graceful degradation, mirroring compaction.fallback: the
				// memory node's RPC service is unreachable, the log broke, or
				// the memory node refused the descriptor. The memtable is
				// still here — build on the compute node instead, for this
				// table and the rest of this flush's attempts.
				db.stats.OffloadFallbacks.Add(1)
				nearData = false
			}
		}
		if !nearData {
			m, err = db.buildFlushTable(w, mt, capacity)
		}
		if err == nil {
			// Still the shard's owner (no-op without a lease)? A table a
			// deposed primary installs is one no checkpoint will ever name:
			// its extent would leak. Then replicate before install (no-op
			// without a replica): a checkpoint may name this table the
			// moment it publishes, so its replica copy must exist first. On
			// failure the extent is returned and the whole build retries.
			if err = db.wal.CheckFence(w.qp); err == nil {
				err = db.attachMirror(m)
			}
			if err == nil {
				meta = m
				break
			}
			db.discardFlushTable(w, m)
		}
		// The write failed (fabric fault, service outage). The MemTable is
		// immutable, so the build can simply run again after a pause.
		db.stats.FlushErrors.Add(1)
		if db.storageDead() || errors.Is(err, ErrFenced) {
			// Our own node — or a memory node acked writes depend on — is
			// gone, or the shard is another compute node's now; retrying
			// cannot succeed. Surrender the table so Close can still drain:
			// recovery (or failover promotion, or the new owner) owns the
			// data now.
			db.finishFlush(mt, nil)
			return
		}
		if attempt >= flushMaxAttempts {
			panic(fmt.Sprintf("engine: flush failed %d times: %v", attempt, err))
		}
		d := flushRetryBase << (attempt - 1)
		if d > flushRetryMax || d <= 0 {
			d = flushRetryMax
		}
		db.env.Sleep(d)
	}
	db.stats.Flushes.Add(1)
	if nearData {
		db.stats.OffloadedFlushes.Add(1)
	}
	db.stats.BytesFlushed.Add(meta.Size)
	db.finishFlush(mt, meta)
}

// Flush retry schedule: doubling from flushRetryBase, capped. The cap is
// generous enough to ride out link flaps; a flush that still fails after
// every attempt means remote memory is gone for good.
const (
	flushMaxAttempts = 20
	flushRetryBase   = 200 * time.Microsecond
	flushRetryMax    = 50 * time.Millisecond
)

// buildFlushTable serializes mt into a freshly allocated extent and returns
// the new table's metadata. On failure the extent is returned to the
// allocator and the caller may retry.
func (db *DB) buildFlushTable(w *bgWorker, mt *memtable.MemTable, capacity int64) (*sstable.Meta, error) {
	dest, err := db.newTableDest(capacity)
	if err != nil {
		return nil, err
	}
	sink := db.newSink(w, dest, capacity)
	writer := sstable.NewWriter(db.opts.Format, sink, db.opts.BlockSize, db.opts.BitsPerKey,
		sstable.Options{Costs: db.opts.Costs, Charge: db.charge})

	var maxSeq uint64
	it := mt.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		writer.Add(it.Key(), it.Value())
		if _, seq, _, err := keys.Parse(it.Key()); err == nil && uint64(seq) > maxSeq {
			maxSeq = uint64(seq)
		}
	}
	res, err := writer.Finish()
	if err != nil {
		db.releaseTableDest(dest, capacity)
		return nil, err
	}
	extent := db.shrinkExtent(dest, capacity, res)
	return &sstable.Meta{
		ID: db.vs.NextFileID(), Size: res.Size, Extent: extent,
		IndexLen: res.IndexLen, FilterLen: res.FilterLen, Count: res.Count,
		Smallest: res.Smallest, Largest: res.Largest, MaxSeq: maxSeq,
		Data: dest, CreatorNode: db.cn.ID,
		Format: db.opts.Format, BlockSize: db.opts.BlockSize,
		Index: res.Index, Filter: res.Filter,
	}, nil
}

// finishFlush publishes the new L0 table (before removing the MemTable from
// the immutable list, so no read window misses the data) and wakes stalled
// writers and compaction workers.
func (db *DB) finishFlush(mt *memtable.MemTable, meta *sstable.Meta) {
	var file *version.File
	if meta != nil {
		file = version.NewFile(meta)
		e := version.NewEdit()
		e.Add(0, file)
		db.vs.Apply(e)
		db.l0count.Store(int32(db.currentL0Count()))
	}

	db.mu.Lock()
	for i, x := range db.imms {
		if x == mt {
			db.imms = append(db.imms[:i], db.imms[i+1:]...)
			break
		}
	}
	db.immCount.Store(int32(len(db.imms)))
	db.broadcastLocked()
	db.mu.Unlock()

	if file != nil {
		db.vs.UnrefFile(file) // drop the creator reference
	}
	mt.Unref()

	// The flushed data is now remotely durable as a table: let the log
	// publish a fresh checkpoint and reclaim the covered ring records.
	// Nil-safe, so Durability-off flushes pay nothing.
	db.wal.RequestRefresh()
}

func (db *DB) currentL0Count() int {
	v := db.vs.Current()
	n := v.L0Count()
	v.Unref()
	return n
}

// --- compaction --------------------------------------------------------------

func (db *DB) pickParams() version.PickParams {
	return version.PickParams{
		L0Trigger:  db.opts.L0CompactTrigger,
		L1MaxBytes: db.opts.L1MaxBytes,
		Multiplier: 10, // each level holds ten times the one above
	}
}

// compactionWorker loops: pick the most urgent compaction, execute it
// near-data or locally, install the result.
func (db *DB) compactionWorker() {
	w := db.newBGWorker()
	defer w.close()
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return
		}
		gen := db.workGen
		db.mu.Unlock()

		c := db.vs.PickCompaction(db.pickParams())
		if c == nil {
			db.mu.Lock()
			if db.workGen == gen && !db.closed {
				db.bgCond.Wait()
			}
			db.mu.Unlock()
			continue
		}
		db.runCompaction(w, c)
	}
}

func (db *DB) runCompaction(w *bgWorker, c *version.Compaction) {
	db.stats.CompactionsRunning.Add(1)
	defer db.stats.CompactionsRunning.Add(-1)

	start := db.env.Now()
	var outputs []*sstable.Meta
	var err error
	if db.opts.CompactionSite == CompactNearData && db.opts.Transport == TransportNative {
		outputs, err = db.compactRemote(w, c)
		if err == nil {
			db.stats.RemoteCompactions.Add(1)
		} else {
			// Graceful degradation: the memory node's RPC service is
			// unreachable (crash, flapping link) and retries are spent.
			// The table bytes are still remotely readable with one-sided
			// verbs, so merge on the compute node instead.
			db.stats.CompactionFallbacks.Add(1)
			outputs, err = db.compactLocal(w, c)
			if err == nil {
				db.stats.LocalCompactions.Add(1)
			}
		}
	} else {
		outputs, err = db.compactLocal(w, c)
		if err == nil {
			db.stats.LocalCompactions.Add(1)
		}
	}
	if err == nil {
		// Replicate the outputs before the install makes them reachable
		// (no-op without a replica). On failure attachOutputs has
		// already routed both-side extents to the GC worker.
		err = db.attachOutputs(outputs)
	}
	if err != nil {
		// Even the local path failed (persistent fabric faults, allocation
		// exhaustion). Abandon this attempt: the inputs stay live in the
		// current version and the picker re-picks after a pause.
		db.stats.CompactionErrors.Add(1)
		db.vs.Release(c)
		db.mu.Lock()
		db.broadcastLocked()
		db.mu.Unlock()
		db.env.Sleep(time.Millisecond)
		return
	}
	db.stats.CompactionTime.Add(int64(db.env.Now() - start))
	db.stats.CompactionBytesIn.Add(c.InputBytes())
	levelIn, levelOut := db.compactionLevelCounters(c.Level)
	levelIn.Add(c.InputBytes())
	for _, m := range outputs {
		db.stats.CompactionBytesOut.Add(m.Size)
		levelOut.Add(m.Size)
	}

	// Install: outputs to Level+1, inputs removed — one copy-on-write
	// metadata mutation (§III).
	e := version.NewEdit()
	files := make([]*version.File, 0, len(outputs))
	for _, m := range outputs {
		f := version.NewFile(m)
		files = append(files, f)
		e.Add(c.Level+1, f)
	}
	for _, f := range c.Files() {
		e.Delete(f)
	}
	db.vs.Apply(e)
	db.vs.Release(c)
	for _, f := range files {
		db.vs.UnrefFile(f)
	}
	db.l0count.Store(int32(db.currentL0Count()))

	db.mu.Lock()
	db.broadcastLocked()
	db.mu.Unlock()
}

// metaSlack bounds one encoded table meta without its index and filter
// (boundary keys, extent, counters) when sizing an RPC reply region.
const metaSlack = 4 << 10

// compactRemote offloads the merge to the memory node through the
// customized RPC (§V, §X-D2): only metadata travels; table bytes never
// cross the network.
func (db *DB) compactRemote(w *bgWorker, c *version.Compaction) ([]*sstable.Meta, error) {
	args := &memnode.CompactArgs{
		SmallestSnapshot: uint64(db.smallestSnapshot()),
		DropTombstones:   c.DropTombstones,
		Subcompactions:   db.opts.Subcompactions,
		TableSize:        db.effectiveTableSize(),
		Format:           db.opts.Format,
		BlockSize:        db.opts.BlockSize,
		BitsPerKey:       db.opts.BitsPerKey,
	}
	// The reply carries every output's cached index and filter: no more
	// than the inputs' together, plus per-table framing.
	replyMax := 64 << 10
	for _, f := range c.Files() {
		args.Inputs = append(args.Inputs, f.Meta)
		replyMax += f.Meta.IndexLen + f.Meta.FilterLen + metaSlack
	}
	replyMax += db.opts.Subcompactions * metaSlack // each may cut one more table
	// A stable nonzero job id: every retry of this call re-sends the same
	// bytes, so the memory node can deduplicate redelivery. Derived from
	// the first input's identity — its table id and extent offset are
	// unique among this DB's live jobs — plus instanceID: sibling shards
	// (and the fresh engines elastic sharding opens mid-run) restart their
	// file-id and sequence counters, and flush extents from the shared
	// compute-controlled allocator reuse the same offsets, so without the
	// instance qualifier two engines can collide on a job id and the
	// dedupe table would hand the second engine the first one's outputs —
	// two owners for one extent, and a double free at GC.
	m0 := args.Inputs[0]
	args.JobID = sim.Mix64(uint64(db.env.Seed()), uint64(db.cn.ID),
		db.instanceID, uint64(m0.ID), uint64(m0.Data.Off), m0.MaxSeq) | 1
	return db.remoteJob(w, "compact", args.JobID, memnode.EncodeCompactArgs(args), replyMax, nil)
}

// remoteJob is the one ladder both near-data builds ("compact",
// "flush_build") climb: size the reply region for the metas coming back,
// call under the CompactRPC retry policy — args carry the stable jobID, so
// the memory node dedupes redelivery — decode the outputs, let accept (if
// any) check and finish them, and stamp file ids. On any failure the job
// is cancelled: best effort, if it is still running (or finishes later)
// the cancel frees its unclaimed outputs and tombstones the id against
// late redelivery. The caller then falls back to the compute-local build.
func (db *DB) remoteJob(w *bgWorker, method string, jobID uint64, args []byte, replyMax int,
	accept func([]*sstable.Meta) error) (outputs []*sstable.Meta, err error) {
	defer func() {
		if err != nil {
			db.cancelRemoteJob(w, jobID)
		}
	}()
	cli := w.largeClient()
	cli.GrowReply(replyMax)
	reply, err := cli.CallLargePolicy(method, args, db.opts.CompactRPC)
	if err != nil {
		return nil, err
	}
	if outputs, err = memnode.DecodeMetas(reply); err != nil {
		return nil, err
	}
	if accept != nil {
		if err = accept(outputs); err != nil {
			return nil, err
		}
	}
	for _, m := range outputs {
		m.ID = db.vs.NextFileID()
	}
	return outputs, nil
}

// cancelRemoteJob tells the memory node to drop a remote job the engine
// gave up on. Best effort with a short retry budget: if the service is down
// the cancel itself times out and the job's outputs leak until the next
// cancel or restart.
func (db *DB) cancelRemoteJob(w *bgWorker, jobID uint64) {
	args := binary.LittleEndian.AppendUint64(nil, jobID)
	_, _ = w.client().CallPolicy("compact_cancel", args, db.opts.FreeRPC)
}

// compactLocal merges on the compute node: inputs stream over the network,
// outputs stream back — the data movement near-data compaction eliminates.
// Like the memory-node executor, it parallelizes into subcompactions
// (§XI-B enables 12 subcompaction workers for every system).
func (db *DB) compactLocal(w *bgWorker, c *version.Compaction) ([]*sstable.Meta, error) {
	inputMetas := make([]*sstable.Meta, 0, len(c.Files()))
	for _, f := range c.Files() {
		inputMetas = append(inputMetas, f.Meta)
	}
	ranges := compactor.SplitRanges(inputMetas, db.opts.Subcompactions, db.effectiveTableSize())

	type result struct {
		metas []*sstable.Meta
		err   error
	}
	results := make([]result, len(ranges))
	wg := sim.NewWaitGroup(db.env)
	for i, r := range ranges {
		i, r := i, r
		run := func() {
			defer wg.Done()
			metas, err := db.runLocalSubcompaction(c, inputMetas, r[0], r[1])
			results[i] = result{metas, err}
		}
		wg.Add(1)
		if i == len(ranges)-1 {
			run() // last range on this worker
		} else {
			db.env.Go(run)
		}
	}
	wg.Wait()

	var outputs []*sstable.Meta
	var firstErr error
	for _, r := range results {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		outputs = append(outputs, r.metas...)
	}
	if firstErr != nil {
		// Some subcompactions may have committed outputs before another
		// failed; none will be installed, so return their extents now.
		for _, m := range outputs {
			db.freeTableLocal(m)
		}
		return nil, firstErr
	}
	return outputs, nil
}

// runLocalSubcompaction merges one key subrange on the compute node with
// its own thread-local QP, fetchers and sink.
func (db *DB) runLocalSubcompaction(c *version.Compaction, inputMetas []*sstable.Meta, lo, hi []byte) ([]*sstable.Meta, error) {
	qp := db.cn.NewQP(db.mn)
	defer qp.Close()
	var cli *rpc.Client
	cliFn := func() *rpc.Client {
		if cli == nil {
			cli = rpc.NewClient(db.cn, db.mn, nil, 1<<20)
		}
		return cli
	}
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	sub := &bgWorker{db: db, qp: qp}
	sub.pipeline = flush.NewPipeline(qp, flushBufSize)
	sub.pipeline.SetMetrics(db.m.flush)

	inputs := make([]compactor.Input, 0, len(inputMetas))
	for _, m := range inputMetas {
		// Each input table needs its own scratch slot: the merge holds
		// chunks from every input simultaneously.
		slot := new(*rdma.MemoryRegion)
		inputs = append(inputs, compactor.Input{
			Meta:  m,
			Fetch: db.newFetcher(m, qp, slot, cliFn),
		})
	}
	factory := func(capacity int64) (sstable.Sink, compactor.Commit, error) {
		dest, err := db.newTableDest(capacity)
		if err != nil {
			return nil, nil, err
		}
		commit := func(res sstable.BuildResult, maxSeq uint64) (*sstable.Meta, error) {
			extent := db.shrinkExtent(dest, capacity, res)
			return &sstable.Meta{
				ID: db.vs.NextFileID(), Size: res.Size, Extent: extent,
				IndexLen: res.IndexLen, FilterLen: res.FilterLen, Count: res.Count,
				Smallest: res.Smallest, Largest: res.Largest, MaxSeq: maxSeq,
				Data: dest, CreatorNode: db.cn.ID,
				Format: db.opts.Format, BlockSize: db.opts.BlockSize,
				Index: res.Index, Filter: res.Filter,
			}, nil
		}
		return db.newSink(sub, dest, capacity), commit, nil
	}
	return compactor.Run(inputs, compactor.Params{
		Format:           db.opts.Format,
		BlockSize:        db.opts.BlockSize,
		BitsPerKey:       db.opts.BitsPerKey,
		TableSize:        db.effectiveTableSize(),
		ExtentCap:        db.extentClass(),
		SmallestSnapshot: db.smallestSnapshot(),
		DropTombstones:   c.DropTombstones,
		Lo:               lo,
		Hi:               hi,
		Prefetch:         db.opts.PrefetchBytes,
		Opts:             sstable.Options{Costs: db.opts.Costs, Charge: db.charge},
	}, factory)
}

// --- garbage collection (§V-B) ----------------------------------------------

// gcWorker reclaims unreachable tables: compute-created extents free
// locally (the allocator metadata lives here); memory-node-created extents
// batch into "free" RPCs; tmpfs files batch into "fs_free".
func (db *DB) gcWorker() {
	const gcBatch = 8 // remote frees grouped per "free" RPC (§V-B)
	cli := rpc.NewClient(db.cn, db.mn, nil, 1<<20)
	defer cli.Close()
	var remoteFrees [][2]int64
	var fsFrees []uint64

	flushBatches := func(force bool) {
		if len(remoteFrees) > 0 && (force || len(remoteFrees) >= gcBatch) {
			if db.freeRemote(cli, remoteFrees) {
				db.stats.RemoteFreeRPCs.Add(1)
			} else {
				// Retries exhausted: drop the batch rather than wedge the
				// GC worker. The extents leak on the memory node until its
				// service restarts; the counter records how much.
				db.stats.GCDropped.Add(1)
			}
			remoteFrees = remoteFrees[:0]
		}
		if len(fsFrees) > 0 && (force || len(fsFrees) >= gcBatch) {
			args := memnode.EncodeFSFrees(db.freeBatchID(), fsFrees)
			if _, err := cli.CallPolicy("fs_free", args, db.opts.FreeRPC); err != nil {
				db.stats.GCDropped.Add(1)
			}
			fsFrees = fsFrees[:0]
		}
	}

	for {
		m, ok := db.gcCh.Recv()
		if !ok {
			flushBatches(true)
			return
		}
		for {
			db.routeFree(m, &remoteFrees, &fsFrees)
			if m, ok = db.gcCh.TryRecv(); !ok {
				break
			}
		}
		// The queue is drained; ship whatever accumulated (grouping
		// multiple GC tasks per RPC, §V-B).
		flushBatches(true)
	}
}

// freeBatchID names one free batch across its retries, so the memory node
// applies it at most once: a retry after a lost reply must not free again
// what another table may since have been given. instanceID keeps sibling
// shards apart, as in compactRemote.
func (db *DB) freeBatchID() uint64 {
	return sim.Mix64(uint64(db.env.Seed()), uint64(db.cn.ID), db.instanceID, db.gcSeq.Add(1)) | 1
}

// freeRemote returns memory-node-created extents through the "free" RPC
// and reports whether the memory node took the batch.
func (db *DB) freeRemote(cli *rpc.Client, frees [][2]int64) bool {
	_, err := cli.CallPolicy("free", memnode.EncodeFrees(db.freeBatchID(), frees), db.opts.FreeRPC)
	return err == nil
}

func (db *DB) routeFree(m *sstable.Meta, remoteFrees *[][2]int64, fsFrees *[]uint64) {
	db.stats.TablesFreed.Add(1)
	if db.mirror != nil {
		// Free the replica copy alongside the primary extent (idempotent:
		// a table without one — degraded mirror, abandoned attach — is a
		// no-op, so the two release paths can never double-free).
		db.mirror.Release(m.ID)
	}
	switch {
	case m.Data.RKey == fsRKeySentinel:
		*fsFrees = append(*fsFrees, uint64(m.Data.Off))
	case m.CreatorNode == db.mn.ID:
		// Near-data compaction output: the extent lives in the memory
		// node's self-controlled area, whose allocator metadata only it
		// holds — freeing is an RPC. Everything else was carved from the
		// compute-controlled region, whose (host-shared) allocator this
		// node can free directly — including tables a crashed predecessor
		// compute node created, which Recover adopts.
		*remoteFrees = append(*remoteFrees, [2]int64{int64(m.Data.Off), m.Extent})
	default:
		db.freeTableLocal(m)
	}
}
