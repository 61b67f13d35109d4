package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dlsm/internal/keys"
	"dlsm/internal/sim"
	"dlsm/internal/sstable"
)

// modelConfig is one cell of the randomized-iterator matrix: an engine
// configuration whose scans must always agree with a flat reference map.
type modelConfig struct {
	name string
	opts func() Options
	ro   ReadOptions
}

func modelMatrix() []modelConfig {
	small := smallOpts
	tiny := func() Options {
		o := smallOpts()
		// A small window forces many chunks per table, so the pipelined
		// path crosses chunk boundaries constantly.
		o.PrefetchBytes = 8 << 10
		return o
	}
	block := func() Options {
		o := smallOpts()
		o.Format = sstable.Block
		return o
	}
	return []modelConfig{
		{"byteaddr-default", small, ReadOptions{}},
		{"block-default", block, ReadOptions{}},
		{"byteaddr-depth1", small, ReadOptions{PrefetchDepth: 1}},
		{"byteaddr-depth4-smallchunk", tiny, ReadOptions{PrefetchDepth: 4}},
		{"block-depth4", block, ReadOptions{PrefetchDepth: 4}},
	}
}

// TestIteratorModel drives a seeded random schedule of Put / Delete /
// WriteBatch / Flush / compaction waits against the engine while
// maintaining a flat reference map, and after every phase checks full
// scans, bounded scans, SeekGE probes and snapshot iterators pinned at
// older sequences against the model.
func TestIteratorModel(t *testing.T) {
	for _, mc := range modelMatrix() {
		t.Run(mc.name, func(t *testing.T) {
			harness(t, mc.opts(), func(env *sim.Env, db *DB) {
				runIteratorModel(t, db, mc.ro)
			})
		})
	}
}

func runIteratorModel(t *testing.T, db *DB, ro ReadOptions) {
	const (
		keySpace = 400
		phases   = 8
		opsPhase = 600
	)
	rng := rand.New(rand.NewSource(20230401))
	s := db.NewSession()
	defer s.Close()

	model := map[string]string{}
	mkey := func(i int) string { return fmt.Sprintf("mk-%06d", i) }

	type snapState struct {
		seq   keys.Seq
		model map[string]string
	}
	var snaps []snapState

	for phase := 0; phase < phases; phase++ {
		for op := 0; op < opsPhase; op++ {
			k := mkey(rng.Intn(keySpace))
			switch rng.Intn(10) {
			case 0, 1: // delete
				if err := s.Delete([]byte(k)); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				delete(model, k)
			case 2: // batch of puts and deletes, applied atomically
				var b Batch
				for j := 0; j < 1+rng.Intn(6); j++ {
					bk := mkey(rng.Intn(keySpace))
					if rng.Intn(4) == 0 {
						b.Delete([]byte(bk))
						delete(model, bk)
					} else {
						bv := fmt.Sprintf("b%d-%d-%s", phase, op, bk)
						b.Put([]byte(bk), []byte(bv))
						model[bk] = bv
					}
				}
				if err := s.Apply(&b); err != nil {
					t.Fatalf("Apply: %v", err)
				}
			default: // put
				v := fmt.Sprintf("p%d-%d-%s", phase, op, k)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				model[k] = v
			}
		}

		// Pin a snapshot of this phase's state for later verification.
		snap := snapState{seq: db.CurrentSeq(), model: map[string]string{}}
		for k, v := range model {
			snap.model[k] = v
		}
		db.registerSnapshot(snap.seq)
		snaps = append(snaps, snap)

		// Structural churn between phases: flush, and periodically let
		// compactions settle so scans cross L0 and deeper levels.
		db.Flush()
		if phase%3 == 2 {
			db.WaitForCompactions()
		}

		checkScans(t, s, ro, model, rng, phase)
	}

	// Snapshot iterators at old sequences see each phase's frozen state.
	for i, snap := range snaps {
		roSnap := ro
		roSnap.Snapshot = snap.seq
		it := s.NewIteratorOpts(roSnap)
		got := collectAll(t, it)
		it.Close()
		compareModel(t, fmt.Sprintf("snapshot %d (seq %d)", i, snap.seq), got, snap.model)
		db.releaseSnapshot(snap.seq)
	}
}

// checkScans verifies a full scan, a handful of bounded scans and SeekGE
// probes against the model.
func checkScans(t *testing.T, s *Session, ro ReadOptions, model map[string]string, rng *rand.Rand, phase int) {
	t.Helper()
	sorted := sortedKeys(model)

	it := s.NewIteratorOpts(ro)
	defer it.Close()

	compareModel(t, fmt.Sprintf("phase %d full scan", phase), collectAll(t, it), model)

	for probe := 0; probe < 8; probe++ {
		// Half the probes hit existing keys, half land between keys.
		target := fmt.Sprintf("mk-%06d", rng.Intn(420))
		if probe%2 == 1 {
			target += "x"
		}
		want := sort.SearchStrings(sorted, target)
		it.SeekGE([]byte(target))
		if want == len(sorted) {
			if it.Valid() {
				t.Fatalf("phase %d: SeekGE(%q) valid at %q, want exhausted", phase, target, it.Key())
			}
			continue
		}
		if !it.Valid() || string(it.Key()) != sorted[want] {
			t.Fatalf("phase %d: SeekGE(%q) = %q, want %q", phase, target, it.Key(), sorted[want])
		}
		if string(it.Value()) != model[sorted[want]] {
			t.Fatalf("phase %d: SeekGE(%q) value mismatch", phase, target)
		}
		// Bounded scan: walk a window of up to 25 keys from the probe.
		for n := 0; n < 25 && want+n < len(sorted); n++ {
			if !it.Valid() {
				t.Fatalf("phase %d: bounded scan from %q ended at %d, model has %q",
					phase, target, n, sorted[want+n])
			}
			if string(it.Key()) != sorted[want+n] || string(it.Value()) != model[sorted[want+n]] {
				t.Fatalf("phase %d: bounded scan from %q diverged at step %d: %q",
					phase, target, n, it.Key())
			}
			it.Next()
		}
	}
	if err := it.Error(); err != nil {
		t.Fatalf("phase %d: iterator error: %v", phase, err)
	}
}

func collectAll(t *testing.T, it *Iterator) map[string]string {
	t.Helper()
	got := map[string]string{}
	var prev string
	for it.First(); it.Valid(); it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("scan out of order: %q after %q", k, prev)
		}
		prev = k
		got[k] = string(it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return got
}

func compareModel(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %q = %q, want %q", what, k, got[k], v)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
