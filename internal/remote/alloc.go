// Package remote manages disaggregated memory allocation (paper §V-A/B).
// The memory node's DRAM is split into disjoint regions: one controlled
// (allocated and freed) by the compute node for MemTable flushing, and one
// controlled by the memory node itself for near-data compaction output.
// Because regions are pre-registered with the NIC, compute-side allocation
// is a pure local metadata operation — no network round trip.
//
// Every SSTable records which node allocated it; garbage collection routes
// each free to its owning allocator, batching frees destined for the
// remote side into a single RPC (§V-B).
//
// The allocator is a binary buddy system: extents round up to powers of
// two, freed buddies coalesce, and over-provisioned extents shrink by
// splitting off their upper halves. Table builders must reserve worst-case
// space before the output size is known, so a plain first-fit allocator
// fragments pathologically under the allocate-big/shrink-to-fit pattern;
// buddy blocks keep every hole reusable.
package remote

import (
	"fmt"
	"math/bits"
	"sync"
)

// Align is the minimum allocation granularity in bytes (the smallest buddy
// block).
const Align = 64

const maxOrders = 40

// Allocator hands out power-of-two extents from an address space
// [0, size). It is safe for concurrent use and never blocks on simulation
// primitives.
type Allocator struct {
	size int64

	mu   sync.Mutex
	free [maxOrders]map[int64]bool // per order: offsets of free blocks
	live map[int64]int             // allocated blocks: offset -> order
	used int64
}

// NewAllocator creates an allocator over an address space of size bytes.
// Space is decomposed into maximal aligned power-of-two blocks; a non
// power-of-two size is fully usable, though single allocations are capped
// by the largest such block.
func NewAllocator(size int64) *Allocator {
	a := &Allocator{size: size, live: map[int64]int{}}
	for i := range a.free {
		a.free[i] = map[int64]bool{}
	}
	// Greedy binary decomposition of [0, size).
	off := int64(0)
	for off+Align <= size {
		o := orderOf(size - off)
		// The block must also be naturally aligned at its own size.
		for off&((int64(1)<<o)*Align-1) != 0 || off+(int64(1)<<o)*Align > size {
			o--
		}
		a.free[o][off] = true
		off += (int64(1) << o) * Align
	}
	return a
}

// orderOf returns the largest order o with Align<<o <= n.
func orderOf(n int64) uint {
	return uint(bits.Len64(uint64(n/Align))) - 1
}

// orderFor returns the smallest order whose block holds n bytes.
func orderFor(n int) uint {
	if n <= Align {
		return 0
	}
	blocks := (int64(n) + Align - 1) / Align
	o := uint(bits.Len64(uint64(blocks - 1)))
	return o
}

func blockBytes(order uint) int64 { return (int64(1) << order) * Align }

// Alloc reserves an extent of at least n bytes and returns its offset.
func (a *Allocator) Alloc(n int) (int64, error) {
	want := orderFor(n)
	a.mu.Lock()
	defer a.mu.Unlock()
	// Find the smallest free block that fits, preferring low addresses.
	for o := want; o < maxOrders; o++ {
		if len(a.free[o]) == 0 {
			continue
		}
		off := minKey(a.free[o])
		delete(a.free[o], off)
		// Split down to the requested order, freeing upper halves.
		for cur := o; cur > want; cur-- {
			a.free[cur-1][off+blockBytes(cur-1)] = true
		}
		a.live[off] = int(want)
		a.used += blockBytes(want)
		return off, nil
	}
	return 0, fmt.Errorf("remote: out of memory (want %d, used %d of %d, free %s)",
		n, a.used, a.size, a.freeHistogramLocked())
}

// freeHistogramLocked summarizes the free lists for diagnostics.
func (a *Allocator) freeHistogramLocked() string {
	s := ""
	for o := 0; o < maxOrders; o++ {
		if len(a.free[o]) > 0 {
			s += fmt.Sprintf("%d:%d ", blockBytes(uint(o)), len(a.free[o]))
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// Free returns the extent at off to the allocator. n must be the extent
// size recorded at allocation (after any Shrink), i.e. Meta.Extent. The
// caller owns the extent, so a mismatch is a bug here and panics; a free
// that arrives from a peer goes through TryFree.
func (a *Allocator) Free(off int64, n int) {
	if err := a.TryFree(off, n); err != nil {
		panic(err.Error())
	}
}

// TryFree is Free that reports an extent this allocator does not hold at
// that size as an error and leaves the allocator untouched.
func (a *Allocator) TryFree(off int64, n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	order, ok := a.live[off]
	if !ok {
		return fmt.Errorf("remote: invalid free at %d: double free or never allocated", off)
	}
	if uint(order) != orderFor(n) {
		return fmt.Errorf("remote: free of %d bytes at %d does not match extent %d (stale handle?)",
			n, off, blockBytes(uint(order)))
	}
	delete(a.live, off)
	a.used -= blockBytes(uint(order))
	a.freeBlockLocked(off, uint(order))
	return nil
}

// freeBlockLocked inserts a block and coalesces with its buddy chain.
func (a *Allocator) freeBlockLocked(off int64, order uint) {
	for order < maxOrders-1 {
		buddy := off ^ blockBytes(order)
		if !a.free[order][buddy] {
			break
		}
		delete(a.free[order], buddy)
		if buddy < off {
			off = buddy
		}
		order++
	}
	a.free[order][off] = true
}

// Shrink trims the live extent at off down to newSize bytes by splitting
// off upper-half buddies, returning the extent's new size. Table builders
// over-allocate because output sizes are unknown upfront; shrinking after
// Finish keeps space accounting honest without fragmenting the region.
func (a *Allocator) Shrink(off int64, newSize int) int64 {
	want := orderFor(newSize)
	a.mu.Lock()
	defer a.mu.Unlock()
	order, ok := a.live[off]
	if !ok {
		panic(fmt.Sprintf("remote: shrink of unallocated extent at %d", off))
	}
	for uint(order) > want {
		order--
		a.freeBlockLocked(off+blockBytes(uint(order)), uint(order))
		a.used -= blockBytes(uint(order))
	}
	a.live[off] = order
	return blockBytes(uint(order))
}

// Used returns the bytes currently allocated (whole blocks).
func (a *Allocator) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Size returns the total address-space size.
func (a *Allocator) Size() int64 { return a.size }

func minKey(m map[int64]bool) int64 {
	first := true
	var min int64
	for k := range m {
		if first || k < min {
			min = k
			first = false
		}
	}
	return min
}

// ClassSize returns the buddy block size that an allocation of n bytes
// occupies. Engines shrink table extents to a single shared class so every
// freed block is immediately reusable for the next table (no checkerboard
// fragmentation of live and sub-class free buddies).
func ClassSize(n int) int64 { return blockBytes(orderFor(n)) }

// alignUp rounds n up to the allocation granularity (used by tests).
func alignUp(n int64) int64 {
	if n <= 0 {
		return Align
	}
	return (n + Align - 1) &^ (Align - 1)
}
