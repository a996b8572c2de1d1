package serve

import "sync"

// flightCall is one in-flight computation waiters coalesce onto.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Flight coalesces concurrent computations of the same key into a single
// execution whose result fans out to every waiter — the scan-sharing
// primitive: identical scan batches (same partitions, same predicate class)
// arriving while one runs share that execution instead of re-reading the
// data.
// Unlike a cache, a completed call's result is dropped immediately; only
// temporally-overlapping callers share (the result cache layer above decides
// what to keep).
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// Do executes fn for key, unless an execution for key is already in flight,
// in which case it waits for and returns that execution's result. shared
// reports whether this caller piggybacked on another's execution.
func (f *Flight[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
