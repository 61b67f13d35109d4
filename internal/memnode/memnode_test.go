package memnode

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dlsm/internal/keys"
	"dlsm/internal/rdma"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

func testbed(cfg Config) (*sim.Env, *rdma.Fabric, *rdma.Node, *Server) {
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 24)
	mn := fab.AddNode("memory", 12)
	srv := NewServer(mn, cfg)
	srv.Start()
	return env, fab, cn, srv
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.ComputeRegionSize = 64 << 20
	cfg.SelfRegionSize = 64 << 20
	return cfg
}

// buildRemoteTable writes a byte-addressable table (with footer) directly
// into the server's compute region, as a flush would.
func buildRemoteTable(t *testing.T, srv *Server, id uint64, firstKey, n int, seqBase uint64) *sstable.Meta {
	t.Helper()
	var buf []byte
	w := sstable.NewWriter(sstable.ByteAddr, memSink{&buf}, 0, 10, sstable.Options{})
	var maxSeq uint64
	for i := 0; i < n; i++ {
		seq := seqBase + uint64(i)
		w.Add(keys.Append(nil, []byte(fmt.Sprintf("key-%06d", firstKey+i)), keys.Seq(seq), keys.KindSet),
			[]byte(fmt.Sprintf("val-%d-%d", id, firstKey+i)))
		maxSeq = seq
	}
	res, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	off, err := srv.ComputeAlloc().Alloc(len(buf))
	if err != nil {
		t.Fatal(err)
	}
	copy(srv.DataMR().Bytes(int(off), len(buf)), buf)
	return &sstable.Meta{
		ID: id, Size: res.Size, Extent: int64((len(buf) + 63) &^ 63),
		IndexLen: res.IndexLen, FilterLen: res.FilterLen, Count: res.Count,
		Smallest: res.Smallest, Largest: res.Largest, MaxSeq: maxSeq,
		Data: srv.DataMR().Addr(int(off)), CreatorNode: srv.Node().ID - 1, // compute-created
		Format: sstable.ByteAddr, Index: res.Index, Filter: res.Filter,
	}
}

type memSink struct{ buf *[]byte }

func (s memSink) Write(p []byte) { *s.buf = append(*s.buf, p...) }
func (s memSink) Finish() error  { return nil }

func TestCompactArgsRoundTrip(t *testing.T) {
	a := &CompactArgs{
		SmallestSnapshot: 42,
		DropTombstones:   true,
		Subcompactions:   4,
		TableSize:        1 << 20,
		Format:           sstable.ByteAddr,
		BitsPerKey:       10,
	}
	a.Inputs = append(a.Inputs, &sstable.Meta{ID: 7, Size: 100, Count: 3,
		Smallest: keys.Append(nil, []byte("a"), 1, keys.KindSet),
		Largest:  keys.Append(nil, []byte("z"), 2, keys.KindSet)})
	got, err := DecodeCompactArgs(EncodeCompactArgs(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.SmallestSnapshot != 42 || !got.DropTombstones || got.Subcompactions != 4 ||
		got.TableSize != 1<<20 || len(got.Inputs) != 1 || got.Inputs[0].ID != 7 {
		t.Fatalf("round trip: %+v", got)
	}
	// Slim encoding must omit index bodies.
	if got.Inputs[0].Index.NumRecords() != 0 {
		t.Fatal("slim args carried the index body")
	}
}

func TestDecodeCompactArgsCorrupt(t *testing.T) {
	a := &CompactArgs{Subcompactions: 1, TableSize: 1 << 20}
	b := EncodeCompactArgs(a)
	for _, cut := range []int{0, 2, len(b) - 1} {
		if _, err := DecodeCompactArgs(b[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestNearDataCompactionEndToEnd(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		// Two overlapping tables: newer versions of keys 0..499 shadow
		// older ones in the second table.
		t1 := buildRemoteTable(t, srv, 1, 0, 500, 1000) // newer
		t2 := buildRemoteTable(t, srv, 2, 0, 800, 1)    // older, wider

		notifier := rpc.NotifierFor(cn)
		cli := rpc.NewClient(cn, srv.Node(), notifier, 8<<20)
		args := &CompactArgs{
			Inputs:           []*sstable.Meta{t1, t2},
			SmallestSnapshot: uint64(keys.MaxSeq),
			DropTombstones:   true,
			Subcompactions:   4,
			TableSize:        1 << 20,
			Format:           sstable.ByteAddr,
			BitsPerKey:       10,
		}
		reply, err := cli.CallLarge("compact", EncodeCompactArgs(args))
		if err != nil {
			t.Fatal(err)
		}
		outs, err := DecodeMetas(reply)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) == 0 {
			t.Fatal("no outputs")
		}
		total := 0
		for _, m := range outs {
			if m.CreatorNode != srv.Node().ID {
				t.Fatalf("output creator = %d, want memory node %d", m.CreatorNode, srv.Node().ID)
			}
			total += m.Count
		}
		if total != 800 {
			t.Fatalf("outputs hold %d entries, want 800 (500 shadowed dropped)", total)
		}
		if srv.SelfUsed() == 0 {
			t.Fatal("outputs not allocated from the self-controlled region")
		}

		// Verify merged content: key-000000 must have the newer value.
		qp := cn.NewQP(srv.Node())
		found := false
		for _, m := range outs {
			r := sstable.NewReader(m, sstable.NewQPFetcher(qp, m.Data), sstable.Options{})
			v, ok, deleted, err := r.Get([]byte("key-000000"), keys.MaxSeq)
			if err != nil {
				t.Fatal(err)
			}
			if ok && !deleted {
				if string(v) != "val-1-0" {
					t.Fatalf("merged value = %q, want newer val-1-0", v)
				}
				found = true
			}
		}
		if !found {
			t.Fatal("key-000000 missing after compaction")
		}
	})
	env.Wait()
}

func TestCompactRejectsForeignTables(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		bogus := &sstable.Meta{ID: 1, Count: 1,
			Smallest: keys.Append(nil, []byte("a"), 1, keys.KindSet),
			Largest:  keys.Append(nil, []byte("b"), 1, keys.KindSet),
			Data:     rdma.RemoteAddr{Node: 99, RKey: 1}}
		notifier := rpc.NotifierFor(cn)
		cli := rpc.NewClient(cn, srv.Node(), notifier, 1<<20)
		_, err := cli.CallLarge("compact", EncodeCompactArgs(&CompactArgs{
			Inputs: []*sstable.Meta{bogus}, Subcompactions: 1, TableSize: 1 << 20}))
		if err == nil {
			t.Fatal("compaction of non-resident table succeeded")
		}
	})
	env.Wait()
}

func TestFreeBatch(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		// Allocate two extents in the self region via a compaction-less
		// path: reach in directly (the allocator is the unit under test
		// on the server side of the "free" RPC).
		off1, _ := srv.selfAlloc.Alloc(4096)
		off2, _ := srv.selfAlloc.Alloc(8192)
		if srv.SelfUsed() == 0 {
			t.Fatal("setup failed")
		}
		cli := rpc.NewClient(cn, srv.Node(), nil, 1<<20)
		frees := [][2]int64{
			{srv.selfBase + off1, 4096},
			{srv.selfBase + off2, 8192},
		}
		if _, err := cli.Call("free", EncodeFrees(7, frees)); err != nil {
			t.Fatal(err)
		}
		if srv.SelfUsed() != 0 {
			t.Fatalf("SelfUsed = %d after free batch", srv.SelfUsed())
		}

		// At most once: the extent is handed out again, and the batch is
		// redelivered (a retry after a lost reply). The redelivery must get
		// the first delivery's answer, not free the new owner's extent.
		again, _ := srv.selfAlloc.Alloc(4096)
		if again != off1 {
			t.Fatalf("setup: reallocation landed at %d, want the freed %d", again, off1)
		}
		if _, err := cli.Call("free", EncodeFrees(7, frees)); err != nil {
			t.Fatalf("redelivered batch: %v", err)
		}
		if srv.SelfUsed() != 4096 {
			t.Fatalf("SelfUsed = %d after a redelivered free batch, want the live 4096", srv.SelfUsed())
		}

		// A batch naming extents this node does not hold is a peer's error:
		// an error reply and a counter, the valid rest applied, no panic.
		bad := [][2]int64{{srv.selfBase + off2, 8192}, {srv.selfBase + again, 4096}, {srv.selfBase + again, 1 << 20}}
		if _, err := cli.Call("free", EncodeFrees(8, bad)); err == nil {
			t.Fatal("free of a never-allocated extent and of a wrong size succeeded")
		}
		if srv.SelfUsed() != 0 {
			t.Fatalf("SelfUsed = %d: the valid item of the bad batch was not applied", srv.SelfUsed())
		}
	})
	env.Wait()
	if got := fab.Telemetry().Counter("memnode.invalid_frees").Load(); got != 2 {
		t.Errorf("memnode.invalid_frees = %d, want 2", got)
	}
	if got := fab.Telemetry().Counter("memnode.jobs.deduped").Load(); got != 1 {
		t.Errorf("memnode.jobs.deduped = %d, want the one redelivery", got)
	}
}

func TestTmpfsReadWriteFree(t *testing.T) {
	env, fab, cn, srv := testbed(smallConfig())
	env.Run(func() {
		defer fab.Close()
		cli := rpc.NewClient(cn, srv.Node(), nil, 1<<20)

		write := func(id uint64, off int, data []byte) {
			args := make([]byte, 16, 16+len(data))
			putU64(args, 0, id)
			putU64(args, 8, uint64(off))
			args = append(args, data...)
			if _, err := cli.Call("fs_write", args); err != nil {
				t.Fatal(err)
			}
		}
		read := func(id uint64, off, n int) []byte {
			args := make([]byte, 20)
			putU64(args, 0, id)
			putU64(args, 8, uint64(off))
			putU32(args, 16, uint32(n))
			b, err := cli.Call("fs_read", args)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		write(5, 0, []byte("hello "))
		write(5, 6, []byte("tmpfs"))
		if got := read(5, 0, 11); !bytes.Equal(got, []byte("hello tmpfs")) {
			t.Fatalf("read = %q", got)
		}
		if srv.FSUsed() == 0 {
			t.Fatal("FSUsed = 0")
		}
		// Out-of-bounds read errors.
		args := make([]byte, 20)
		putU64(args, 0, 5)
		putU64(args, 8, 100)
		putU32(args, 16, 10)
		if _, err := cli.Call("fs_read", args); err == nil {
			t.Fatal("OOB read succeeded")
		}
		// Free.
		if _, err := cli.Call("fs_free", EncodeFSFrees(3, []uint64{5})); err != nil {
			t.Fatal(err)
		}
		if srv.FSUsed() != 0 {
			t.Fatal("file survived fs_free")
		}
		// A redelivery is answered from the dedupe table; a fresh batch
		// naming the file that is gone is an error reply.
		if _, err := cli.Call("fs_free", EncodeFSFrees(3, []uint64{5})); err != nil {
			t.Fatalf("redelivered fs_free: %v", err)
		}
		if _, err := cli.Call("fs_free", EncodeFSFrees(4, []uint64{5})); err == nil {
			t.Fatal("fs_free of a missing file succeeded")
		}
	})
	env.Wait()
}

func TestSubcompactionsUseRemoteCores(t *testing.T) {
	// A compaction on a 12-core memory node with 4 subcompactions must run
	// them in parallel: measure against a 1-core node.
	elapsed := map[int]time.Duration{}
	for _, cores := range []int{1, 12} {
		env := sim.NewEnv()
		fab := rdma.NewFabric(env, rdma.EDR100())
		cn := fab.AddNode("compute", 24)
		mn := fab.AddNode("memory", cores)
		srv := NewServer(mn, smallConfig())
		srv.Start()
		env.Run(func() {
			defer fab.Close()
			t1 := buildRemoteTable(t, srv, 1, 0, 20_000, 1)
			notifier := rpc.NotifierFor(cn)
			cli := rpc.NewClient(cn, srv.Node(), notifier, 8<<20)
			start := env.Now()
			_, err := cli.CallLarge("compact", EncodeCompactArgs(&CompactArgs{
				Inputs: []*sstable.Meta{t1}, SmallestSnapshot: uint64(keys.MaxSeq),
				Subcompactions: 8, TableSize: 128 << 10, Format: sstable.ByteAddr, BitsPerKey: 10}))
			if err != nil {
				t.Fatal(err)
			}
			elapsed[cores] = time.Duration(env.Now() - start)
		})
		env.Wait()
	}
	if elapsed[12]*2 >= elapsed[1] {
		t.Fatalf("12-core compaction (%v) not much faster than 1-core (%v)", elapsed[12], elapsed[1])
	}
}

func putU64(b []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}

func putU32(b []byte, off int, v uint32) {
	for i := 0; i < 4; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}
