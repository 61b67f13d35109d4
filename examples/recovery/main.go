// Recovery: the §VIII story end to end, now on the remote write-ahead
// log. With Options.Durability = DurabilitySync every acknowledged write
// has its log record in remote memory — placed there by a one-sided RDMA
// write, no memory-node CPU — before Put returns. When the compute node
// dies, a standby opens with dlsm.RoleRecover: the log slot is read back, the
// embedded checkpoint rebuilds the table metadata, and every record past
// the checkpoint horizon is re-applied. Nothing acknowledged is lost, not
// even writes still sitting in the MemTable at the moment of the crash.
package main

import (
	"fmt"

	"dlsm"
)

func main() {
	cfg := dlsm.SingleNodeConfig()
	cfg.ComputeNodes = 2 // compute-1 is the standby
	d := dlsm.NewDeployment(cfg)

	d.Run(func() {
		opts := dlsm.DefaultOptions()
		opts.Durability = dlsm.DurabilitySync

		// Runs on compute-0 (log owner 0): the zero Placement.
		db, err := dlsm.OpenDB(d, dlsm.RolePrimary, dlsm.Placement{}, opts)
		if err != nil {
			panic(err)
		}
		s := db.NewSession()

		// A main-memory database's write traffic: every nil error below is
		// an acknowledgment the client may act on.
		for i := 0; i < 80_000; i++ {
			put(s, fmt.Sprintf("acct-%06d", i%20000), fmt.Sprintf("balance=%d", i))
		}

		// One last write, deliberately NOT flushed: it exists only in
		// compute-0's MemTable and in the remote log.
		put(s, "acct-marker", "acked-but-unflushed")
		fmt.Println("80001 writes acknowledged (last one never flushed)")

		// 💥 compute-0 fails. Its DRAM — MemTables, metadata, caches — is
		// gone; remote memory (SSTables and the log slot) survives.
		d.Compute[0].Crash()
		s.Close()
		db.Close()
		fmt.Println("compute-0 lost; recovering on standby compute-1...")

		// The standby rebuilds owner 0's DB from the remote log.
		db2, err := dlsm.OpenDB(d, dlsm.RoleRecover, dlsm.Placement{ComputeIdx: 1, Owner: 0}, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("replayed %d log entries past the checkpoint horizon\n",
			db2.Stats()[0].WALReplayed.Load())

		// Verify: flushed state came back through the checkpoint's table
		// metadata, and the never-flushed acknowledged write came back
		// through log replay.
		s2 := db2.NewSession()
		mustEqual(s2, "acct-019999", "balance=79999")
		mustEqual(s2, "acct-marker", "acked-but-unflushed")
		fmt.Println("recovery verified: checkpointed and unflushed acked state intact")

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
