// Failover: surviving the loss of a MEMORY node. Durability alone
// (examples/recovery) survives a compute-node crash because the log and the
// SSTables live in remote memory — but that remote memory was a single
// copy. With Options.Replica set every durable artifact is mirrored onto
// that second memory node: WAL records land in both rings before
// Put acknowledges (AckQuorum), flushed and compacted SSTable extents are
// cloned primary→replica, the checkpoint slot pair flips on both nodes, and
// the shard lease word is written through. When the primary memory node
// dies, RoleRecover pointed at the replica promotes it — zero acknowledged
// writes lost, including writes that never left the MemTable+log.
package main

import (
	"fmt"

	"dlsm"
)

func main() {
	cfg := dlsm.SingleNodeConfig()
	cfg.ComputeNodes = 2 // compute-1 is the standby
	cfg.MemoryNodes = 2  // memory-1 is the passive replica
	d := dlsm.NewDeployment(cfg)

	d.Run(func() {
		opts := dlsm.DefaultOptions()
		opts.Durability = dlsm.DurabilitySync
		opts.MemTableSize = 256 << 10 // small, so flushes exercise the table mirror
		opts.TableSize = 256 << 10
		opts.Replica = d.Servers[1]        // replication is on exactly when a replica is named
		opts.ReplAck = dlsm.AckQuorum      // ack only once BOTH rings hold the record
		opts.ReplMode = dlsm.ReplIndexOnly // primary clones extents straight to the replica

		// The DB runs on compute-0 against memory-0; memory-1 is passive —
		// its CPU serves no LSM, bytes arrive via one-sided writes and the
		// repl_clone handler on the primary.
		db, err := dlsm.OpenDB(d, dlsm.RolePrimary, dlsm.Placement{Servers: d.Servers[:1]}, opts)
		if err != nil {
			panic(err)
		}
		s := db.NewSession()
		for i := 0; i < 40_000; i++ {
			put(s, fmt.Sprintf("acct-%06d", i%20000), fmt.Sprintf("balance=%d", i))
		}

		// One last write, deliberately NOT flushed: it exists in the
		// MemTable and in the two log rings, nowhere else.
		put(s, "acct-marker", "acked-but-unflushed")
		tel := d.Fabric.Telemetry()
		fmt.Printf("40001 writes quorum-acknowledged; %d SSTable extents mirrored, %d replication bytes on the wire\n",
			tel.Counter("repl.tables").Load(), tel.Counter("repl.net_bytes").Load())

		// 💥 the PRIMARY MEMORY NODE fails: its DRAM — the authoritative
		// SSTables, the primary log ring, the lease table — is gone.
		d.Servers[0].Node().Crash()
		s.Close()
		db.Close()
		fmt.Println("memory-0 lost; promoting the replica on standby compute-1...")

		// Promotion is just recovery pointed at the replica: the mirrored
		// log slot lives under the same key, its checkpoint references the
		// replica-side extent copies, and the ring holds every record the
		// quorum ever acknowledged. Replication is off on the promoted side
		// (its peer is the node that just died).
		opts.Replica, opts.ReplAck, opts.ReplMode = nil, dlsm.AckPrimary, dlsm.ReplIndexOnly
		db2, err := dlsm.OpenDB(d, dlsm.RoleRecover,
			dlsm.Placement{ComputeIdx: 1, Owner: 0, Servers: d.Servers[1:2]}, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("replayed %d log entries from the replica ring\n",
			db2.Stats()[0].WALReplayed.Load())

		// Verify: checkpointed state came back through the mirrored extents,
		// and the never-flushed acknowledged write through replica log replay.
		s2 := db2.NewSession()
		mustEqual(s2, "acct-019999", "balance=39999")
		mustEqual(s2, "acct-marker", "acked-but-unflushed")
		fmt.Println("failover verified: zero acknowledged writes lost")

		s2.Close()
		db2.Close()
	})
	d.Close()
}

func put(s *dlsm.Session, key, value string) {
	if err := s.Put([]byte(key), []byte(value)); err != nil {
		panic(err)
	}
}

func mustEqual(s *dlsm.Session, key, want string) {
	v, err := s.Get([]byte(key))
	if err != nil || string(v) != want {
		panic(fmt.Sprintf("Get(%s) = %q, %v; want %q", key, v, err, want))
	}
}
