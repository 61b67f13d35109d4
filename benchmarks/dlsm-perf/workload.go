package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"dlsm"
	"dlsm/internal/service"
	"dlsm/internal/sim"
)

// Traffic shape shared by every workload (paper §XI: db_bench with 20-byte
// keys and 400-byte values). The generators are the ones
// internal/bench.Config.Key/Value use, so numbers line up with the -fig
// tables.
const (
	keySize   = 20
	valSize   = 400
	entrySize = keySize + valSize

	preloadLoaders = 16
	scanLen        = 100 // entries per scanrandom scan
	verifyEvery    = 100 // fillrandom reads back 1 key in verifyEvery
	scanValueEvery = 64  // scans check the value of 1 entry in scanValueEvery

	// putWindow is how many consecutive Puts of one session make one
	// fillrandom latency sample. A single Put reads 0 or 21 600 vns, because
	// the engine charges write CPU in 12-put batches: its percentiles are
	// constants of the cost model and blind to stalls. Over a window the
	// median is the steady per-put cost and p999 is the write stalls
	// (2 x 16 stalled windows in 15 000).
	putWindow = 50
	// seqWindow is how many consecutive entries of one session make one
	// readseq latency sample. A streaming scan has no per-call latency, and a
	// single Next is parse CPU 4 999 times in 5 000. Over 200 entries, 1/25 of
	// a 2 MiB chunk, the median is pure parse CPU and one window in 25 waits
	// for a chunk fetch, so p99 sits three quarters up the fetch waits: of
	// the window sizes tried (100 to 500) the steadiest from seed to seed.
	// 4 x 1 000 samples support p99, not p999.
	seqWindow = 200
)

// defaultSeed is the date the paper appeared at ICDE, as in internal/bench.
const defaultSeed = 20230401

// workload is one row of the benchmark: sizes at -scale 1 and the knobs it
// sets on top of dlsm.DefaultOptions(). The sizes are half of what the
// issue that defined the benchmark drafted (the runner has to fit 114 runs
// into 57 minutes), except fillrandom: see its entry.
type workload struct {
	name    string
	why     string
	preload int // keys loaded and settled before the measured phase
	ops     int // measured calls (scans for scanrandom; unused by readseq: one pass per client)
	clients int
	lambda  int
	entries bool // throughput units are scanned entries, not calls
	deploy  func(c *dlsm.DeploymentConfig)
	tune    func(o *dlsm.Options, scale float64)
	measure func(b *bench)
	verify  func(b *bench) // unmeasured read-back after the measured phase
}

var workloads = []workload{
	{
		name: "fillrandom",
		why:  "16 sessions put uniform-random keys into an empty tree: memtable, flush, compaction, memnode and write stalls do the work; cache, bloom, WAL and service do none",
		// 750 000 puts is the window in which the workload does its job and
		// the engine stays correct: up to 500 000 the tree never stalls a
		// writer, and from 900 000 a compaction falls back from the memory
		// node to the compute node, after which Gets return other keys'
		// values (README, "Findings").
		ops: 750_000, clients: 16, lambda: 1,
		measure: (*bench).fillRandom,
		verify:  (*bench).verifyFill,
	},
	{
		name:    "readrandom",
		why:     "uniform point reads of a settled tree, cache off: bloom, index search, one small RDMA read and the sim kernel's per-verb handoff; the write path and cache are idle",
		preload: 200_000, ops: 400_000, clients: 16, lambda: 1,
		measure: (*bench).readRandom,
	},
	{
		name:    "ycsb_a_svc",
		why:     "full stack: service tier, 4-shard router, sync WAL, 10% cache, Zipf 50/50 read/update, so a read-path gain that costs writes (or the reverse) shows",
		preload: 200_000, ops: 200_000, clients: 16, lambda: 4,
		// Four default WAL slots (8 memtables = 32 MiB each) do not fit the
		// default 64 MiB log region; OpenDB panics without this.
		deploy: func(c *dlsm.DeploymentConfig) { c.MemNode.LogRegionSize = 256 << 20 },
		tune: func(o *dlsm.Options, scale float64) {
			o.Durability = dlsm.DurabilitySync
			// ~10 % of the preloaded bytes at any scale: the Zipf head fits,
			// the tail does not.
			o.CacheBudgetBytes = int64(8 << 20 * scale)
		},
		measure: (*bench).ycsbService,
	},
	{
		name:    "readseq",
		why:     "4 sessions each iterate the whole table once: bandwidth-bound streaming through the table iterators' 2 MiB chunk reads, the merge iterator and large RDMA reads",
		preload: 200_000, clients: 4, lambda: 1, entries: true,
		measure: (*bench).readSeq,
	},
	{
		name:    "scanrandom",
		why:     "short scans from uniform starts use the chunk prefetch the opposite way from readseq (seek cost and prefetch waste), so a prefetch window that helps one and hurts the other shows",
		preload: 200_000, ops: 1_200, clients: 8, lambda: 1, entries: true,
		measure: (*bench).scanRandom,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled multiplies a count by -scale, keeping it a positive multiple of
// per (so every client gets the same share).
func scaled(n int, scale float64, per int) int {
	v := int(float64(n)*scale) / per * per
	if v < per {
		v = per
	}
	return v
}

func appendKey(dst []byte, i int) []byte {
	var tmp [keySize]byte
	s := strconv.AppendInt(tmp[:0], int64(i), 10)
	for n := keySize - len(s); n > 0; n-- {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

func makeKey(i int) []byte { return appendKey(make([]byte, 0, keySize), i) }

// fillValue writes the value of key i into v: a pure function of i, so
// any reader can check any value byte for byte without a side table.
func fillValue(v []byte, i int) {
	state := uint64(i)*0x9E3779B97F4A7C15 + 1
	for j := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[j] = 'a' + byte(state%26)
	}
}

func makeValue(i int) []byte {
	v := make([]byte, valSize)
	fillValue(v, i)
	return v
}

// keyIndex parses a generated key back to its index (-1 if malformed).
func keyIndex(k []byte) int {
	if len(k) != keySize {
		return -1
	}
	n, err := strconv.Atoi(string(k))
	if err != nil {
		return -1
	}
	return n
}

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(client)*7919))
}

// clientRec is what one measured client entity records. Each entity owns
// its record, so nothing here is shared while the phase runs.
type clientRec struct {
	id        int
	lat       []int64 // virtual ns per call
	attempted int64
	failed    int64
	units     int64            // ops, or entries for the scan workloads
	calls     int64            // measured calls made
	seen      map[string]int64 // traced: spans seen per name, kept or not
	spans     []span           // traced: the spans kept
	selfHost  int64            // ycsb_a_svc: host ns spent in the tier between session calls
	written   []int            // fillrandom: keys to read back in bench.verify
	buf       []byte
}

func (r *clientRec) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 3 {
		logf("FAIL client %d: %s", r.id, fmt.Sprintf(format, args...))
	}
}

// checkValue counts a failure unless got is key i's generated value.
func (r *clientRec) checkValue(i int, got []byte, err error) {
	if err != nil {
		r.fail("get %d: %v", i, err)
		return
	}
	if cap(r.buf) < valSize {
		r.buf = make([]byte, valSize)
	}
	want := r.buf[:valSize]
	fillValue(want, i)
	if !bytes.Equal(got, want) {
		r.fail("get %d: wrong value (%d bytes)", i, len(got))
	}
}

// call runs fn as one measured operation: counted, timed on the virtual
// clock and, traced, recorded on both clocks as a span under parent. It
// returns the virtual duration and the span (zero when untraced).
func (b *bench) call(r *clientRec, name string, parent uint64, fn func()) (int64, span) {
	r.attempted++
	r.calls++
	if b.tr == nil {
		t0 := b.d.Env.Now()
		fn()
		return int64(b.d.Env.Now() - t0), span{}
	}
	sp := b.tr.begin(name, parent, r.id)
	fn()
	b.tr.end(&sp)
	if parent == 0 {
		r.keep(sp)
	}
	return sp.V1 - sp.V0, sp
}

// keep counts a finished root span and stores one in spanKeepEvery,
// together with its children.
func (r *clientRec) keep(sp span, children ...span) {
	if r.seen == nil {
		r.seen = map[string]int64{}
	}
	r.seen[sp.Name]++
	for _, c := range children {
		r.seen[c.Name]++
	}
	if r.seen[sp.Name]%spanKeepEvery == 1 {
		r.spans = append(append(r.spans, sp), children...)
	}
}

// runClients runs body on n client entities, each with its own session,
// and returns their records.
func (b *bench) runClients(n, latCap int, body func(r *clientRec, s *dlsm.Session)) []*clientRec {
	recs := make([]*clientRec, n)
	for c := range recs {
		recs[c] = &clientRec{id: c, lat: make([]int64, 0, latCap)}
	}
	wg := sim.NewWaitGroup(b.d.Env)
	for c := 0; c < n; c++ {
		r := recs[c]
		wg.Add(1)
		b.d.Env.Go(func() {
			defer wg.Done()
			s := b.db.NewSession()
			defer s.Close()
			body(r, s)
		})
	}
	wg.Wait()
	return recs
}

// preload inserts keys [0, n) exactly once in shuffled order with 16
// loaders, then settles the tree so the measured phase starts from the
// compacted steady state (paper §XI-C2).
func (b *bench) preload(n int) {
	if n == 0 {
		return
	}
	ph := b.phase("bench.preload")
	perm := rand.New(rand.NewSource(b.cfg.seed ^ 0x5ee0)).Perm(n)
	recs := b.runClients(preloadLoaders, 0, func(r *clientRec, s *dlsm.Session) {
		k := make([]byte, 0, keySize)
		v := make([]byte, valSize)
		for i := r.id; i < n; i += preloadLoaders {
			fillValue(v, perm[i])
			r.attempted++
			if err := s.Put(appendKey(k[:0], perm[i]), v); err != nil {
				r.fail("preload put %d: %v", perm[i], err)
			}
		}
	})
	b.absorb(recs)
	ph.done()
	ph = b.phase("bench.settle")
	b.db.Flush()
	b.db.WaitForCompactions()
	ph.done()
	b.liveKeys = int64(n)
}

func (b *bench) fillRandom() {
	per := b.ops / b.w.clients
	seen := make([]bool, b.ops) // the kernel runs one entity at a time: no lock
	recs := b.runClients(b.w.clients, per/putWindow, func(r *clientRec, s *dlsm.Session) {
		rnd := clientRand(b.cfg.seed, r.id)
		k := make([]byte, 0, keySize)
		v := make([]byte, valSize)
		t0 := b.d.Env.Now()
		for i := 0; i < per; i++ {
			idx := rnd.Intn(b.ops)
			k = appendKey(k[:0], idx)
			fillValue(v, idx)
			b.call(r, "db.put", 0, func() {
				if err := s.Put(k, v); err != nil {
					r.fail("put %d: %v", idx, err)
				}
			})
			seen[idx] = true
			if i%verifyEvery == 0 {
				r.written = append(r.written, idx)
			}
			if i%putWindow == putWindow-1 {
				now := b.d.Env.Now()
				r.lat = append(r.lat, int64(now-t0))
				t0 = now
			}
		}
		r.units = int64(per)
	})
	for _, s := range seen {
		if s {
			b.liveKeys++
		}
	}
	b.measured = recs
}

// verifyFill reads back the sampled keys fillrandom wrote (unmeasured).
func (b *bench) verifyFill() {
	written := make([][]int, len(b.measured))
	for i, r := range b.measured {
		written[i] = r.written
	}
	recs := b.runClients(len(written), 0, func(r *clientRec, s *dlsm.Session) {
		k := make([]byte, 0, keySize)
		for _, idx := range written[r.id] {
			r.attempted++
			v, err := s.Get(appendKey(k[:0], idx))
			r.checkValue(idx, v, err)
		}
	})
	b.absorb(recs)
}

func (b *bench) readRandom() {
	per := b.ops / b.w.clients
	n := b.preloaded
	b.measured = b.runClients(b.w.clients, per, func(r *clientRec, s *dlsm.Session) {
		rnd := clientRand(b.cfg.seed, r.id)
		k := make([]byte, 0, keySize)
		for i := 0; i < per; i++ {
			idx := rnd.Intn(n)
			k = appendKey(k[:0], idx)
			d, _ := b.call(r, "db.get", 0, func() {
				v, err := s.Get(k)
				r.checkValue(idx, v, err)
			})
			r.lat = append(r.lat, d)
		}
		r.units = int64(per)
	})
}

// checkScan walks up to limit entries from the iterator's position,
// requiring strictly ascending keys from the generated key space and
// spot-checking values; every window entries it calls mark (window 0:
// never). It returns the entries visited.
func (b *bench) checkScan(r *clientRec, it *dlsm.Iterator, limit, window int, mark func()) int {
	last := -1
	n := 0
	for ; it.Valid() && n < limit; it.Next() {
		idx := keyIndex(it.Key())
		if idx <= last {
			r.fail("scan: key %q after index %d", it.Key(), last)
			return n
		}
		last = idx
		if n%scanValueEvery == 0 {
			r.checkValue(idx, it.Value(), nil)
		}
		n++
		if window > 0 && n%window == 0 {
			mark()
		}
	}
	return n
}

// readSeq: every session iterates the whole table once.
func (b *bench) readSeq() {
	n := b.preloaded
	b.measured = b.runClients(b.w.clients, n/seqWindow, func(r *clientRec, s *dlsm.Session) {
		it := s.NewIterator()
		defer it.Close()
		env := b.d.Env
		var sp span
		if b.tr != nil {
			sp = b.tr.begin("db.scan", 0, r.id)
		}
		t0 := env.Now()
		it.First()
		got := b.checkScan(r, it, n+1, seqWindow, func() {
			now := env.Now()
			r.lat = append(r.lat, int64(now-t0))
			t0 = now
		})
		if b.tr != nil {
			b.tr.end(&sp)
			r.keep(sp)
		}
		r.attempted, r.calls = 1, 1
		if got != n {
			r.fail("readseq: %d entries, want %d", got, n)
		}
		r.units = int64(got)
	})
}

func (b *bench) scanRandom() {
	per := b.ops / b.w.clients
	n := b.preloaded
	b.measured = b.runClients(b.w.clients, per, func(r *clientRec, s *dlsm.Session) {
		rnd := clientRand(b.cfg.seed, r.id)
		k := make([]byte, 0, keySize)
		for i := 0; i < per; i++ {
			start := rnd.Intn(n)
			k = appendKey(k[:0], start)
			want := min(scanLen, n-start)
			d, _ := b.call(r, "db.scan", 0, func() {
				it := s.NewIterator()
				it.SeekGE(k)
				if it.Valid() && keyIndex(it.Key()) != start {
					r.fail("scan: SeekGE(%d) landed on %q", start, it.Key())
				}
				got := b.checkScan(r, it, scanLen, 0, nil)
				it.Close()
				if got != want {
					r.fail("scan from %d: %d entries, want %d", start, got, want)
				}
				r.units += int64(got)
			})
			r.lat = append(r.lat, d)
		}
	})
}

// tenantName names ycsb_a_svc's one tenant (and prefixes its svc.* metrics).
const tenantName = "ycsb_a"

// ycsbService drives the DB through the service tier. The tier gets a
// checking wrapper around dlsm sessions (dlsm.NewService would hide them),
// which is where per-call latency, value checks and — traced — the
// svc.request / db.get / db.put spans come from.
func (b *bench) ycsbService() {
	per := b.ops / b.w.clients
	back := &svcDB{b: b, latCap: per}
	tier := service.New(b.d.Env, back, dlsm.ServiceConfig{
		Seed:  b.cfg.seed,
		Key:   makeKey,
		Value: makeValue,
		Tenants: []dlsm.TenantConfig{{
			Name:    tenantName,
			Clients: b.w.clients,
			Ops:     b.ops,
			// ~4x what 16 closed-loop clients reach: admission runs on every
			// request and must never throttle.
			RatePerSec:        2e7,
			Burst:             64,
			AdmissionDeadline: time.Millisecond,
			Workload:          dlsm.YCSBWorkload('A', b.preloaded),
		}},
	})
	rep := tier.Run()[0]
	b.tierSnap = tier.TelemetrySnapshot()
	b.measured = back.recs
	if len(back.recs) > 0 {
		// A throttled request never reaches a session; charge it to client 0.
		back.recs[0].attempted += rep.Throttled
		back.recs[0].failed += rep.Throttled
	}
	for _, r := range back.recs {
		r.units = r.calls
	}
}

// svcDB adapts dlsm.DB to the tier's backend interface, one recording
// session per tier client.
type svcDB struct {
	b      *bench
	latCap int
	recs   []*clientRec
}

func (d *svcDB) NewSession() service.Session {
	r := &clientRec{id: len(d.recs), lat: make([]int64, 0, d.latCap)}
	d.recs = append(d.recs, r)
	s := &svcSession{b: d.b, r: r, s: d.b.db.NewSession()}
	if d.b.tr != nil {
		s.req = d.b.tr.begin("svc.request", 0, r.id)
	}
	return s
}

type svcSession struct {
	b   *bench
	r   *clientRec
	s   *dlsm.Session
	req span // traced: the request in progress (opened when the last one ended)
}

// finish closes the current svc.request span at the end of a session call
// and opens the next one: the tier is a closed loop without think time, so
// a client's request i+1 begins where request i ended. What lies between
// two session calls — op generation, admission, bookkeeping — is the
// tier's self time.
func (s *svcSession) finish(child span) {
	s.r.selfHost += child.H0 - s.req.H0
	s.req.V1, s.req.H1 = child.V1, child.H1
	s.r.keep(s.req, child)
	s.req = s.b.tr.begin("svc.request", 0, s.r.id)
	s.req.V0, s.req.H0 = child.V1, child.H1
}

func (s *svcSession) do(name string, fn func()) {
	d, sp := s.b.call(s.r, name, s.req.ID, fn)
	s.r.lat = append(s.r.lat, d)
	if s.b.tr != nil {
		s.finish(sp)
	}
}

func (s *svcSession) Get(k []byte) (v []byte, err error) {
	s.do("db.get", func() {
		v, err = s.s.Get(k)
		s.r.checkValue(keyIndex(k), v, err)
	})
	return v, err
}

func (s *svcSession) Put(k, v []byte) (err error) {
	s.do("db.put", func() {
		if err = s.s.Put(k, v); err != nil {
			s.r.fail("put %q: %v", k, err)
		}
	})
	return err
}

func (s *svcSession) Scan(start []byte, fn func(k, v []byte) bool) {
	panic("dlsm-perf: YCSB-A issues no scans")
}

func (s *svcSession) Close() { s.s.Close() }
