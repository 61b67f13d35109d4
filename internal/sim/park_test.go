package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// guardAllocs fails unless f, run from inside a warmed-up simulation,
// allocates nothing: parking and waking are the kernel's per-verb cost.
func guardAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s: %.2f allocs per run, want 0", what, n)
	}
}

func skipUnderRace(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
}

func TestSleepAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	e := NewEnv()
	e.Run(func() {
		guardAllocs(t, "Sleep", func() { e.Sleep(time.Microsecond) })
	})
}

// The peer trails the driver by one step, so every round parks a sender on
// the rendezvous channel and a receiver on each side.
func TestChanParkedPairAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	e := NewEnv()
	e.Run(func() {
		c, done := NewChan[int](e, 0), NewChan[int](e, 0)
		e.Go(func() {
			for {
				a, ok := c.Recv()
				if !ok {
					return
				}
				b, _ := c.Recv()
				done.Send(a + b)
			}
		})
		guardAllocs(t, "Chan send/recv", func() {
			c.Send(1)
			c.Send(2)
			if v, _ := done.Recv(); v != 3 {
				t.Fatalf("echo = %d, want 3", v)
			}
		})
		c.Close()
	})
	e.Wait()
}

// Both entities sleep while holding the lock, so every Lock finds it held
// and every Unlock hands it off.
func TestContendedMutexAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	e := NewEnv()
	e.Run(func() {
		mu := NewMutex(e)
		stop := false
		hold := func() bool {
			mu.Lock()
			defer mu.Unlock()
			e.Sleep(time.Microsecond)
			return stop
		}
		e.Go(func() {
			for !hold() {
			}
		})
		guardAllocs(t, "contended Mutex", func() { hold() })
		stop = true
	})
	e.Wait()
}

// TestParkWakeStress drives every primitive that parks on a pooled gate
// from many entities at once and requires the exact outcome of a serial
// schedule. A gate woken twice panics in the kernel; one never woken ends
// in the deadlock report or the test timeout. Run under -race this also
// covers the host-side handoff of gates between owners at 1, 2 and 8 Ps.
func TestParkWakeStress(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		procs := procs
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const workers, rounds = 16, 200
			e := NewEnv()
			var sum, served int
			e.Run(func() {
				mu := NewMutex(e)
				turn := NewCond(e, mu)
				reqs := NewChan[int](e, 0) // rendezvous: parks senders
				acks := NewChan[int](e, 2) // small buffer: parks both sides
				wg := NewWaitGroup(e)
				token := 0

				e.Go(func() { // server: echoes until reqs closes
					for {
						v, ok := reqs.Recv()
						if !ok {
							acks.Close()
							return
						}
						served++
						acks.Send(v)
					}
				})
				for i := 0; i < workers; i++ {
					i := i
					wg.Add(1)
					e.Go(func() {
						defer wg.Done()
						for j := 0; j < rounds; j++ {
							reqs.Send(1)
							v, _ := acks.Recv()
							mu.Lock()
							for token%workers != i { // strict round robin
								turn.Wait()
							}
							token++
							sum += v
							turn.Broadcast()
							mu.Unlock()
							e.Sleep(Duration(1+(i+j)%3) * time.Microsecond)
						}
					})
				}
				wg.Wait()
				reqs.Close()
			})
			e.Wait()
			if sum != workers*rounds || served != workers*rounds {
				t.Fatalf("sum %d, served %d, want %d each", sum, served, workers*rounds)
			}
		})
	}
}

func TestDoubleReadyFailsLoudly(t *testing.T) {
	e := NewEnv()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "woken twice") {
			t.Fatalf("recovered %v, want the double-wake panic", r)
		}
	}()
	e.Run(func() {
		g := NewGate()
		e.Go(func() { e.Clock().Park("test", g) })
		e.Sleep(time.Microsecond) // let it park
		e.Clock().Ready("test", g)
		e.Clock().Ready("test", g)
	})
}

func TestRingWrapsAndGrows(t *testing.T) {
	var r ring[int]
	next, want := 0, 0
	for step := 0; step < 200; step++ {
		for k := 0; k <= step%7; k++ {
			r.push(next)
			next++
		}
		for k := 0; k < step%5 && r.len() > 0; k++ {
			if got := r.pop(); got != want {
				t.Fatalf("step %d: pop = %d, want %d", step, got, want)
			}
			want++
		}
	}
	for r.len() > 0 {
		if got := r.pop(); got != want {
			t.Fatalf("drain: pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
}
