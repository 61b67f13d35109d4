package sim

// ring is a growable FIFO over one backing array. The kernel's queues pop
// from the front on every dispatch and handoff; `q = q[1:]` plus append
// walks off the end of its array and reallocates every cap(q) operations,
// a ring never does once it has grown to the queue's high-water mark.
type ring[T any] struct {
	buf     []T // len is zero or a power of two
	head, n int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference for the collector
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
