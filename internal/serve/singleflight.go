package serve

import (
	"errors"
	"sync"
)

// errLeaderAborted is what waiters observe when the in-flight leader
// panicked out of its computation: a typed failure, never a silent nil
// result. The panic itself propagates on the leader's goroutine.
var errLeaderAborted = errors.New("serve: in-flight computation aborted")

// flightCall is one in-flight computation; waiters block on done and then
// read val/err, which the leader writes before closing.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// flightGroup is a single-flight group keyed by content address: while a
// computation for a key is in flight, later requests for the same key wait
// for it instead of computing again. The zero value is ready to use.
type flightGroup struct {
	mu sync.Mutex
	m  map[Key]*flightCall
}

// do runs fn once per key per flight window. The first caller (the leader)
// executes fn; concurrent callers with the same key wait and share the
// leader's result, reported with shared=true. The key is released before
// done is closed, so a caller arriving after completion becomes a fresh
// leader.
func (g *flightGroup) do(key Key, fn func() (any, error)) (v any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[Key]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{}), err: errLeaderAborted}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
