package dlsm_test

import (
	"fmt"

	"dlsm"
)

// ExampleBatch loads rows with one sequence-range claim per batch instead of
// one per Put, then reads one back.
func ExampleBatch() {
	d := dlsm.NewDeployment(dlsm.SingleNodeConfig())
	defer d.Close()
	d.Run(func() {
		db, err := dlsm.OpenDB(d, dlsm.RolePrimary, dlsm.Placement{}, dlsm.DefaultOptions())
		if err != nil {
			panic(err)
		}
		defer db.Close()
		s := db.NewSession()
		defer s.Close()

		var b dlsm.Batch
		for i := 0; i < 100; i++ {
			b.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i)))
		}
		b.Delete([]byte("key-007"))
		if err := s.Apply(&b); err != nil {
			panic(err)
		}
		b.Reset() // ready for the next batch

		v, _ := s.Get([]byte("key-042"))
		fmt.Println(string(v))
		_, err = s.Get([]byte("key-007"))
		fmt.Println(err == dlsm.ErrNotFound)
	})
	// Output:
	// val-042
	// true
}

// ExampleReadOptions enables the hot-KV cache and contrasts a cache-filling
// point read with a non-polluting one.
func ExampleReadOptions() {
	d := dlsm.NewDeployment(dlsm.SingleNodeConfig())
	defer d.Close()
	d.Run(func() {
		opts := dlsm.DefaultOptions()
		opts.CacheBudgetBytes = 16 << 20 // hot-KV cache on the compute node
		db, err := dlsm.OpenDB(d, dlsm.RolePrimary, dlsm.Placement{}, opts)
		if err != nil {
			panic(err)
		}
		defer db.Close()
		s := db.NewSession()
		defer s.Close()

		if err := s.Put([]byte("hot"), []byte("value")); err != nil {
			panic(err)
		}

		// Plain Get fills the cache. A one-off scan of cold data can opt
		// out so it does not evict the hot set.
		v, _ := s.Get([]byte("hot"))
		fmt.Println(string(v))
		v, _ = s.GetOpts([]byte("hot"), dlsm.ReadOptions{FillCache: false})
		fmt.Println(string(v))

		// PrefetchBytes widens one iterator's read-ahead window.
		it := s.NewIteratorOpts(dlsm.ReadOptions{PrefetchBytes: 4 << 20})
		defer it.Close()
		for it.First(); it.Valid(); it.Next() {
			fmt.Println(string(it.Key()))
		}
	})
	// Output:
	// value
	// value
	// hot
}
