// Package window keeps a bounded window of recently built values: what
// the data plane's caches (the corpus memo, the trainer's shared batch
// cache, a producer's iterations and routes, a tenant's rank batches)
// all need — build a key once, serve re-reads while they are recent,
// and never grow with what has streamed through.
package window

import "sync"

// Window is two generations of a map. The newer one, cur, takes every
// put; the older one, prev, is still read. A put of a key new to cur
// that finds cur holding limit in weight first rotates: cur becomes
// prev and the old prev is dropped. So the window holds between one and
// two generations, each at most limit plus one entry's weight, however
// many keys stream through, and a key survives at least until limit
// weight has been put after it. A Window is not safe for concurrent
// use; its owner locks it.
type Window[K comparable, V any] struct {
	cur, prev map[K]V
	held      int // weight put into cur
	limit     int // the weight at which cur rotates
}

// New returns an empty window whose generations rotate at limit weight.
func New[K comparable, V any](limit int) Window[K, V] {
	return Window[K, V]{limit: limit}
}

// Get returns the value last put under k, if k is still in the window.
// It does not change the window, so readers may share a read lock.
func (w *Window[K, V]) Get(k K) (V, bool) {
	v, ok := w.cur[k]
	if !ok {
		v, ok = w.prev[k]
	}
	return v, ok
}

// Put stores v under k. A key already in cur is overwritten and adds no
// weight; any other key moves into cur with the given weight, after a
// rotation if cur is full. A key's weight must not change.
func (w *Window[K, V]) Put(k K, v V, weight int) {
	if _, ok := w.cur[k]; ok {
		w.cur[k] = v
		return
	}
	if w.held >= w.limit {
		// Rotate, reusing the dropped generation's buckets.
		w.cur, w.prev = w.prev, w.cur
		clear(w.cur)
		w.held = 0
	}
	if w.cur == nil {
		w.cur = make(map[K]V)
	}
	delete(w.prev, k)
	w.cur[k] = v
	w.held += weight
}

// Once is a Window whose values are built once per key. The first Get
// of a key not in the window builds it, outside the lock; a concurrent
// Get of the key waits for that build instead of starting another, and
// gets its value even if the entry rotated out while it waited. Once is
// safe for concurrent use.
type Once[K comparable, V any] struct {
	mu sync.Mutex
	w  Window[K, *built[V]]
}

// built is one value and the builders' handshake: its WaitGroup is done
// once v is set.
type built[V any] struct {
	ready sync.WaitGroup
	v     V
}

// NewOnce returns an empty build-once window whose generations rotate
// at limit weight, to be assigned into place: like its mutex, a Once in
// use must not be copied.
func NewOnce[K comparable, V any](limit int) Once[K, V] {
	return Once[K, V]{w: New[K, *built[V]](limit)}
}

// Get returns k's value, calling build to make it if k is not in the
// window; weight is the value's weight in the window. A build that
// fails must say so in its value: it is kept like any other.
func (o *Once[K, V]) Get(k K, weight int, build func() V) V {
	o.mu.Lock()
	if e, ok := o.w.Get(k); ok {
		o.mu.Unlock()
		e.ready.Wait()
		return e.v
	}
	e := new(built[V])
	e.ready.Add(1)
	o.w.Put(k, e, weight)
	o.mu.Unlock()
	e.v = build()
	e.ready.Done()
	return e.v
}
