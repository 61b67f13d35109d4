package dlsm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// smallTestOpts shrinks the engine so a few thousand writes flush and
// compact.
func smallTestOpts() Options {
	opts := DefaultOptions()
	opts.MemTableSize = 32 << 10
	opts.TableSize = 32 << 10
	opts.EntrySizeHint = 64
	return opts
}

// fingerprint drives a fixed workload through db and hashes every key/value
// the iterator yields afterwards: two DBs are observably equivalent iff
// their fingerprints match.
func fingerprint(t *testing.T, db *DB, n int) uint64 {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, i := range perm {
		if err := s.Put(tkey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	db.Flush()
	db.WaitForCompactions()
	return iterHash(t, db)
}

// iterHash hashes the DB's full iterator output.
func iterHash(t *testing.T, db *DB) uint64 {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	h := fnv.New64a()
	it := s.NewIterator()
	defer it.Close()
	for it.First(); it.Valid(); it.Next() {
		h.Write(it.Key())
		h.Write([]byte{0})
		h.Write(it.Value())
		h.Write([]byte{1})
	}
	return h.Sum64()
}

func tkey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// putRange writes keys [0, n) with their canonical values through s.
func putRange(t *testing.T, s *Session, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(tkey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
}

// wantRange reads every step-th key of [0, n) back through db.
func wantRange(t *testing.T, db *DB, n, step int, when string) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	for i := 0; i < n; i += step {
		v, err := s.Get(tkey(i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) %s: %q, %v", i, when, v, err)
		}
	}
}

// TestOpenDBRoleMatrix drives every role of the one constructor.
func TestOpenDBRoleMatrix(t *testing.T) {
	// A primary is the same DB wherever it is placed and however it is
	// sharded: the same workload leaves the same observable contents at
	// λ = 1 and 4, on compute node 0 and on a non-zero ComputeIdx.
	t.Run("primary", func(t *testing.T) {
		const n, lambda = 3000, 4
		bounds := UniformBoundaries(lambda, n, tkey)
		var fps []uint64
		for _, p := range []Placement{
			{},
			{ComputeIdx: 1},
			{ComputeIdx: 1, Lambda: lambda, Boundaries: bounds},
		} {
			cfg := SingleNodeConfig()
			cfg.ComputeNodes = 2
			d := NewDeployment(cfg)
			d.Run(func() {
				db := mustOpenDB(t, d, RolePrimary, p, smallTestOpts())
				if want := max(p.Lambda, 1); db.Lambda() != want {
					t.Fatalf("Lambda = %d, want %d", db.Lambda(), want)
				}
				fps = append(fps, fingerprint(t, db, n))
				db.Close()
			})
			d.Close()
		}
		if fps[0] != fps[1] || fps[0] != fps[2] {
			t.Fatalf("fingerprints differ across placements: %x", fps)
		}
	})

	// The owner-remap rule: a Sync primary on compute 0 crashes; RoleRecover
	// on compute 1 with Owner 0 derives the dead node's slot keys and
	// restores even the acknowledged write that never left the MemTable. A
	// slot-key mismatch would recover an empty DB and fail the marker check.
	t.Run("recover", func(t *testing.T) {
		const n = 2000
		cfg := SingleNodeConfig()
		cfg.ComputeNodes = 2
		d := NewDeployment(cfg)
		d.Run(func() {
			opts := smallTestOpts()
			opts.Durability = DurabilitySync
			db := mustOpenDB(t, d, RolePrimary, Placement{}, opts)
			s := db.NewSession()
			putRange(t, s, n)
			// Acked but never flushed: only the remote log has it.
			if err := s.Put([]byte("marker"), []byte("acked-unflushed")); err != nil {
				t.Fatalf("Put(marker): %v", err)
			}
			d.Compute[0].Crash()
			s.Close()
			db.Close()

			db2 := mustOpenDB(t, d, RoleRecover, Placement{ComputeIdx: 1, Owner: 0}, opts)
			wantRange(t, db2, n, 13, "after recovery")
			s2 := db2.NewSession()
			if v, err := s2.Get([]byte("marker")); err != nil || string(v) != "acked-unflushed" {
				t.Fatalf("unflushed acked write lost: %q, %v", v, err)
			}
			s2.Close()
			db2.Close()
		})
		d.Close()
	})

	// Scale-out: lease slots and log slots land where every other role
	// expects them. A leased primary shuts a second one out, a secondary
	// reads its published checkpoint, and a takeover from a third node
	// fences the deposed primary and reads everything it acknowledged.
	t.Run("leased", func(t *testing.T) {
		const n = 2000
		cfg := SingleNodeConfig()
		cfg.ComputeNodes = 3
		d := NewDeployment(cfg)
		d.Run(func() {
			opts := smallTestOpts()
			opts.Durability = DurabilitySync
			db := mustOpenDB(t, d, RolePrimary, Placement{Lease: true}, opts)
			if _, err := OpenDB(d, RolePrimary, Placement{ComputeIdx: 1, Lease: true}, opts); !errors.Is(err, ErrLeaseHeld) {
				t.Fatalf("second leased primary: %v, want ErrLeaseHeld", err)
			}
			s := db.NewSession()
			putRange(t, s, n)
			db.Flush()
			if err := db.PublishCheckpoint(); err != nil {
				t.Fatalf("PublishCheckpoint: %v", err)
			}

			sec := mustOpenDB(t, d, RoleSecondary, Placement{ComputeIdx: 1, Owner: 0}, opts)
			wantRange(t, sec, n, 31, "on the secondary")
			ss := sec.NewSession()
			if err := ss.Put(tkey(0), nil); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("secondary Put: %v, want ErrReadOnly", err)
			}
			ss.Close()
			sec.Close()

			// The takeover deposes the live primary: its next write finds the
			// fence moved and is never acknowledged.
			nb := mustOpenDB(t, d, RoleTakeover, Placement{ComputeIdx: 2, Owner: 0}, opts)
			if err := s.Put(tkey(n), []byte("late")); !errors.Is(err, ErrFenced) {
				t.Fatalf("deposed primary Put: %v, want ErrFenced", err)
			}
			d.Compute[0].Crash()
			s.Close()
			db.Close()
			wantRange(t, nb, n, 13, "after takeover")
			nb.Close()
		})
		d.Close()
	})
}

// TestOpenDBRejectsMeaninglessCombinations: the role, placement and option
// combinations one half of which used to be silently dropped are errors
// that name both halves.
func TestOpenDBRejectsMeaninglessCombinations(t *testing.T) {
	d := NewDeployment(CloudLabConfig(2, 2))
	defer d.Close()
	sync := func(o *Options) { o.Durability = DurabilitySync }
	for _, tc := range []struct {
		name string
		role Role
		p    Placement
		tune func(o *Options)
		want []string
	}{
		{"quorum ack without a replica", RolePrimary, Placement{},
			func(o *Options) { sync(o); o.ReplAck = AckQuorum }, []string{"ReplAck", "Replica"}},
		{"log-replay without a replica", RolePrimary, Placement{},
			func(o *Options) { sync(o); o.ReplMode = ReplLogReplay }, []string{"ReplMode", "Replica"}},
		{"replica without durability", RolePrimary, Placement{Servers: d.Servers[:1]},
			func(o *Options) { o.Replica = d.Servers[1] }, []string{"Replica", "Durability"}},
		{"replica on the tmpfs transport", RolePrimary, Placement{Servers: d.Servers[:1]},
			func(o *Options) { sync(o); o.Replica = d.Servers[1]; o.Transport = TransportTmpfsRPC }, []string{"Replica", "Transport"}},
		{"replica on the primary's own node", RolePrimary, Placement{Servers: d.Servers[:1]},
			func(o *Options) { sync(o); o.Replica = d.Servers[0] }, []string{"Replica", "primary"}},
		{"lease on a secondary", RoleSecondary, Placement{Lease: true}, sync, []string{"Placement.Lease", "RoleSecondary"}},
		{"lease on a recovery", RoleRecover, Placement{Lease: true}, sync, []string{"Placement.Lease", "RoleRecover"}},
		{"lease without durability", RolePrimary, Placement{Lease: true}, nil, []string{"Placement.Lease", "Durability"}},
		{"auto-balance on a secondary", RoleSecondary, Placement{},
			func(o *Options) { sync(o); o.AutoBalance = true }, []string{"AutoBalance", "RoleSecondary"}},
		{"foreign owner without a lease", RolePrimary, Placement{Owner: 1}, nil, []string{"Owner 1", "ComputeIdx 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d.Run(func() {
				opts := DefaultOptions()
				if tc.tune != nil {
					tc.tune(&opts)
				}
				db, err := OpenDB(d, tc.role, tc.p, opts)
				if err == nil {
					db.Close()
					t.Fatal("opened")
				}
				for _, w := range tc.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q does not name %q", err, w)
					}
				}
			})
		})
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions: %v", err)
	}
}

// TestOpenDBWALSlotsExceedLogRegion: four shards' default WAL slots
// (8 MemTables = 32 MiB each) do not fit the default 64 MiB log region.
// That is a sizing mistake in the caller's configuration, so OpenDB must
// report it — naming the slot and the region — instead of panicking, and
// the same placement must open once the region is large enough.
func TestOpenDBWALSlotsExceedLogRegion(t *testing.T) {
	const lambda = 4
	opts := DefaultOptions()
	opts.Durability = DurabilitySync
	for _, leased := range []bool{false, true} {
		p := Placement{Lambda: lambda, Boundaries: UniformBoundaries(lambda, 1000, tkey), Lease: leased}
		cfg := SingleNodeConfig()
		d := NewDeployment(cfg)
		d.Run(func() {
			db, err := OpenDB(d, RolePrimary, p, opts)
			if err == nil {
				db.Close()
				t.Fatalf("lease=%v: %d x %d-byte WAL slots opened in a %d-byte log region",
					leased, lambda, 8*opts.MemTableSize, cfg.MemNode.LogRegionSize)
			}
			for _, want := range []string{
				fmt.Sprint(8 * opts.MemTableSize), fmt.Sprint(cfg.MemNode.LogRegionSize), "LogRegionSize",
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("lease=%v: error %q does not name %q", leased, err, want)
				}
			}
		})
		d.Close()

		cfg.MemNode.LogRegionSize = lambda * int64(8*opts.MemTableSize)
		d = NewDeployment(cfg)
		d.Run(func() {
			db, err := OpenDB(d, RolePrimary, p, opts)
			if err != nil {
				t.Fatalf("lease=%v: with a %d-byte log region: %v", leased, cfg.MemNode.LogRegionSize, err)
			}
			db.Close()
		})
		d.Close()
	}
}
