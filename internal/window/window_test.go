package window

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitParked waits, for up to five seconds, until n goroutines are
// parked in a Once.Get waiting for another asker's build.
func awaitParked(n int) {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*WaitGroup).Wait") && strings.Contains(g, "window.(*Once[") {
				parked++
			}
		}
		if parked >= n {
			return
		}
	}
}

// weightIn sums the weights of the keys a generation holds.
func weightIn(gen map[uint8]uint16, weights map[uint8]int) int {
	n := 0
	for k := range gen {
		n += weights[k]
	}
	return n
}

// FuzzWindow runs a random sequence of gets and puts against a naive
// model that keeps every key's last value forever. Each op is two
// bytes: the key, and a value that puts when even and gets when odd;
// puts weigh 1 to 4 by the key, and large limits never rotate where
// small ones rotate every few puts. After every op the window must hold
// each generation within limit plus the largest weight, count cur's
// weight exactly, answer a hit with the last value put, and still hold
// every key after which less than limit weight was put. A Once of the
// same limit asks for every key put: its Has must say beforehand
// whether the ask builds, and after every op agree with what its window
// holds, hold every key after which less than limit weight was built
// and hold no key never built.
func FuzzWindow(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 2, 4, 1, 3, 3, 6, 9, 8, 1, 1})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 5, 2, 5, 3, 0, 4, 0, 5})
	f.Add(uint8(40), []byte{7, 10, 7, 12, 7, 13, 8, 2, 8, 3})
	f.Fuzz(func(t *testing.T, limit uint8, ops []byte) {
		const maxWeight = 4
		weight := func(k uint8) int { return 1 + int(k)%maxWeight }
		w := New[uint8, uint16](int(limit))
		last := map[uint8]uint16{} // the model: every key's last value
		weights := map[uint8]int{} // the model's weight per key put
		after := map[uint8]int{}   // weight put since each key's last put
		o := NewOnce[uint8, uint16](int(limit))
		builtAfter := map[uint8]int{} // weight built since each key's last build
		for i := 0; i+1 < len(ops); i += 2 {
			k, arg := ops[i], ops[i+1]
			if arg%2 == 0 {
				v := uint16(i)<<8 | uint16(arg)
				for other := range after {
					after[other] += weight(k)
				}
				w.Put(k, v, weight(k))
				last[k], weights[k], after[k] = v, weight(k), 0
				had, rebuilt := o.Has(k), false
				o.Get(k, weight(k), func() uint16 { rebuilt = true; return v })
				if rebuilt == had {
					t.Fatalf("op %d: Has(%d) = %v before an ask that built: %v", i/2, k, had, rebuilt)
				}
				if rebuilt {
					for other := range builtAfter {
						builtAfter[other] += weight(k)
					}
					builtAfter[k] = 0
				}
			} else if v, ok := w.Get(k); ok && v != last[k] {
				t.Fatalf("op %d: get %d = %d, last put %d", i/2, k, v, last[k])
			}
			if held := weightIn(w.cur, weights); held != w.held {
				t.Fatalf("op %d: cur holds weight %d, counted %d", i/2, held, w.held)
			}
			for name, gen := range map[string]map[uint8]uint16{"cur": w.cur, "prev": w.prev} {
				if held := weightIn(gen, weights); held > int(limit)+maxWeight-1 && held > maxWeight {
					t.Fatalf("op %d: %s holds weight %d, bound %d", i/2, name, held, int(limit)+maxWeight-1)
				}
			}
			for k, a := range after {
				if _, ok := w.Get(k); !ok && a < int(limit) {
					t.Fatalf("op %d: key %d dropped with only %d weight put after it (limit %d)", i/2, k, a, limit)
				}
			}
			for k, a := range builtAfter {
				_, held := o.w.Get(k)
				if has := o.Has(k); has != held {
					t.Fatalf("op %d: Has(%d) = %v, the window holds it: %v", i/2, k, has, held)
				}
				if !held && a < int(limit) {
					t.Fatalf("op %d: Once dropped key %d with only %d weight built after it (limit %d)", i/2, k, a, limit)
				}
			}
			for _, gen := range []map[uint8]*built[uint16]{o.w.cur, o.w.prev} {
				for k := range gen {
					if _, ok := builtAfter[k]; !ok || !o.Has(k) {
						t.Fatalf("op %d: Once holds key %d, never built, and Has says %v", i/2, k, o.Has(k))
					}
				}
			}
		}
	})
}

// TestOnceBuildsOnce: K concurrent askers of one key cause one build
// and all get its value.
func TestOnceBuildsOnce(t *testing.T) {
	const k = 16
	o := NewOnce[int, *int](4)
	var builds atomic.Int32
	gate := make(chan struct{})
	got := make([]*int, k)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = o.Get(7, 1, func() *int {
				builds.Add(1)
				<-gate
				v := 42
				return &v
			})
		}()
	}
	awaitParked(k - 1) // every other asker waits before the build ends
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent askers caused %d builds", k, n)
	}
	for i, v := range got {
		if v != got[0] || *v != 42 {
			t.Fatalf("asker %d got %p (%v), asker 0 got %p", i, v, v, got[0])
		}
	}
}

// TestOnceWaitersOutliveRotation: the askers waiting on a build whose
// entry rotated out of the window before the build finished still get
// its value, and a later ask builds the key again.
func TestOnceWaitersOutliveRotation(t *testing.T) {
	o := NewOnce[int, int](1)
	var builds atomic.Int32
	gate, started := make(chan struct{}), make(chan struct{})
	build := func() int {
		builds.Add(1)
		close(started)
		<-gate
		return 5
	}
	const waiters = 4
	got := make(chan int, waiters+1)
	go func() { got <- o.Get(0, 1, build) }()
	<-started
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got <- o.Get(0, 1, func() int { t.Error("a waiter started a second build"); return -1 })
		}()
	}
	awaitParked(waiters) // each waiter holds the entry
	// Two more keys rotate key 0 out of the window; then the build ends.
	o.Get(1, 1, func() int { return 1 })
	o.Get(2, 1, func() int { return 2 })
	if _, in := o.w.Get(0); in {
		t.Fatal("two keys of weight 1 at limit 1 did not rotate key 0 out")
	}
	close(gate)
	wg.Wait()
	for range waiters + 1 {
		if v := <-got; v != 5 {
			t.Fatalf("an asker of the rotated-out build got %d, want 5", v)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds before the rotation, want 1", n)
	}
	if v := o.Get(0, 1, func() int { builds.Add(1); return 6 }); v != 6 || builds.Load() != 2 {
		t.Errorf("a rotated-out key was not built again: got %d after %d builds", v, builds.Load())
	}
}

// TestOnceHasWhileBuilding: Has is true for a key from the moment its
// first asker starts the build, while askers of other keys see nothing
// of it, and stays true once the value is built.
func TestOnceHasWhileBuilding(t *testing.T) {
	o := NewOnce[int, int](4)
	if o.Has(1) {
		t.Fatal("an empty window has key 1")
	}
	gate, started := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		done <- o.Get(1, 1, func() int {
			close(started)
			<-gate
			return 3
		})
	}()
	<-started
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !o.Has(1) || o.Has(2) {
				t.Error("while key 1 builds, Has(1) must be true and Has(2) false")
			}
		}()
	}
	wg.Wait()
	close(gate)
	if v := <-done; v != 3 || !o.Has(1) {
		t.Errorf("after the build: got %d, Has(1) = %v", v, o.Has(1))
	}
}
