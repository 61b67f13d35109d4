package dlsm

import (
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

// TestOpenDBEquivalence: each legacy constructor and its OpenDB twin,
// driven with the same workload in fresh identical deployments, produce
// observably identical DBs.
func TestOpenDBEquivalence(t *testing.T) {
	const n, lambda = 3000, 4
	bounds := UniformBoundaries(lambda, n, tkey)
	cases := []struct {
		name   string
		legacy func(d *Deployment, opts Options) *DB
		new    func(d *Deployment, opts Options) *DB
	}{
		{"Open", func(d *Deployment, opts Options) *DB {
			return Open(d, opts)
		}, func(d *Deployment, opts Options) *DB {
			return mustOpen(OpenDB(d, RolePrimary, Placement{}, opts))
		}},
		{"OpenSharded", func(d *Deployment, opts Options) *DB {
			return OpenSharded(d, opts, lambda, bounds)
		}, func(d *Deployment, opts Options) *DB {
			return mustOpen(OpenDB(d, RolePrimary, Placement{Lambda: lambda, Boundaries: bounds}, opts))
		}},
		{"OpenAt", func(d *Deployment, opts Options) *DB {
			return OpenAt(d, 1, d.Servers, opts, lambda, bounds)
		}, func(d *Deployment, opts Options) *DB {
			return mustOpen(OpenDB(d, RolePrimary,
				Placement{ComputeIdx: 1, Servers: d.Servers, Lambda: lambda, Boundaries: bounds}, opts))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fps [2]uint64
			for v, open := range []func(d *Deployment, opts Options) *DB{tc.legacy, tc.new} {
				cfg := SingleNodeConfig()
				cfg.ComputeNodes = 2
				d := NewDeployment(cfg)
				d.Run(func() {
					db := open(d, smallTestOpts())
					fps[v] = fingerprint(t, db, n)
					db.Close()
				})
				d.Close()
			}
			if fps[0] != fps[1] {
				t.Fatalf("%s: legacy fingerprint %x != OpenDB fingerprint %x", tc.name, fps[0], fps[1])
			}
		})
	}
}

// TestOpenDBRecoverCrossEquivalence proves the two paths derive identical
// WAL slot keys, in the only way that matters: a DB written through the
// legacy constructor is recoverable through OpenDB, and vice versa. A slot
// key mismatch would recover an empty DB and fail the marker checks.
func TestOpenDBRecoverCrossEquivalence(t *testing.T) {
	const n = 2000
	type opener func(d *Deployment, opts Options) *DB
	type recoverer func(d *Deployment, opts Options) (*DB, error)
	writeLegacy := opener(func(d *Deployment, opts Options) *DB { return Open(d, opts) })
	writeNew := opener(func(d *Deployment, opts Options) *DB {
		return mustOpen(OpenDB(d, RolePrimary, Placement{}, opts))
	})
	recoverLegacy := recoverer(func(d *Deployment, opts Options) (*DB, error) {
		return RecoverAt(d, 1, 0, d.Servers, opts, 1, nil)
	})
	recoverNew := recoverer(func(d *Deployment, opts Options) (*DB, error) {
		return OpenDB(d, RoleRecover, Placement{ComputeIdx: 1, Owner: 0}, opts)
	})
	for _, tc := range []struct {
		name string
		w    opener
		r    recoverer
	}{
		{"legacy-write/OpenDB-recover", writeLegacy, recoverNew},
		{"OpenDB-write/legacy-recover", writeNew, recoverLegacy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SingleNodeConfig()
			cfg.ComputeNodes = 2
			d := NewDeployment(cfg)
			d.Run(func() {
				opts := smallTestOpts()
				opts.Durability = DurabilitySync
				db := tc.w(d, opts)
				s := db.NewSession()
				for i := 0; i < n; i++ {
					if err := s.Put(tkey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Fatalf("Put(%d): %v", i, err)
					}
				}
				// Acked but never flushed: only the remote log has it.
				if err := s.Put([]byte("marker"), []byte("acked-unflushed")); err != nil {
					t.Fatalf("Put(marker): %v", err)
				}
				d.Compute[0].Crash()
				s.Close()
				db.Close()

				db2, err := tc.r(d, opts)
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				s2 := db2.NewSession()
				for i := 0; i < n; i += 13 {
					v, err := s2.Get(tkey(i))
					if err != nil || string(v) != fmt.Sprintf("v%d", i) {
						t.Fatalf("Get(%d) after recovery: %q, %v", i, v, err)
					}
				}
				if v, err := s2.Get([]byte("marker")); err != nil || string(v) != "acked-unflushed" {
					t.Fatalf("unflushed acked write lost: %q, %v", v, err)
				}
				s2.Close()
				db2.Close()
			})
			d.Close()
		})
	}
}

// TestOpenDBScaleoutCrossEquivalence: a shard group opened with the legacy
// lease-holding primary is attachable and takeover-able through OpenDB —
// lease slots and log slots land where the other path expects them.
func TestOpenDBScaleoutCrossEquivalence(t *testing.T) {
	const n = 2000
	cfg := SingleNodeConfig()
	cfg.ComputeNodes = 3
	d := NewDeployment(cfg)
	d.Run(func() {
		opts := smallTestOpts()
		opts.Durability = DurabilitySync
		db, err := OpenPrimaryAt(d, 0, 0, d.Servers, opts, 1, nil)
		if err != nil {
			t.Fatalf("OpenPrimaryAt: %v", err)
		}
		s := db.NewSession()
		for i := 0; i < n; i++ {
			if err := s.Put(tkey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		db.Flush()
		if err := db.PublishCheckpoint(); err != nil {
			t.Fatalf("PublishCheckpoint: %v", err)
		}

		// OpenDB-attached secondary reads the legacy primary's checkpoint.
		sec, err := OpenDB(d, RoleSecondary, Placement{ComputeIdx: 1, Owner: 0}, opts)
		if err != nil {
			t.Fatalf("OpenDB secondary: %v", err)
		}
		ss := sec.NewSession()
		for i := 0; i < n; i += 31 {
			v, err := ss.Get(tkey(i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("secondary Get(%d): %q, %v", i, v, err)
			}
		}
		ss.Close()
		sec.Close()

		// OpenDB takeover deposes the legacy primary's leases.
		d.Compute[0].Crash()
		s.Close()
		db.Close()
		nb, err := OpenDB(d, RoleTakeover, Placement{ComputeIdx: 2, Owner: 0}, opts)
		if err != nil {
			t.Fatalf("OpenDB takeover: %v", err)
		}
		s2 := nb.NewSession()
		for i := 0; i < n; i += 13 {
			v, err := s2.Get(tkey(i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("Get(%d) after takeover: %q, %v", i, v, err)
			}
		}
		s2.Close()
		nb.Close()
	})
	d.Close()
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
