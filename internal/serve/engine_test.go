package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineSingleFlight: K concurrent Do calls for the same key run the
// compute exactly once; everyone gets the same value. The compute blocks
// until all K callers have started and 100 ms more, so each joins the
// flight: joining is not observable from outside, and a caller that came
// after the leader landed would compute again, since Do keeps nothing. Do
// touches no cache counter.
func TestEngineSingleFlight(t *testing.T) {
	const K = 16
	e := NewEngine(Config{Fingerprint: "fp", CacheBytes: 1 << 20})
	key := e.PageKey("p0", "<html>page</html>")

	var computes atomic.Int64
	arrived := make(chan struct{}, K)
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			v, _, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
				computes.Add(1)
				<-proceed
				return "result", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	for i := 0; i < K; i++ {
		<-arrived
	}
	time.Sleep(100 * time.Millisecond)
	close(proceed)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for i, v := range results {
		if v.(string) != "result" {
			t.Errorf("caller %d got %v", i, v)
		}
	}
	c := e.Counters()
	if c["coalesced"] != K-1 {
		t.Errorf("coalesced = %d, want %d", c["coalesced"], K-1)
	}
	if c["hits"]+c["misses"]+c["stores"]+c["entries"] != 0 {
		t.Errorf("Do touched the cache: %v", c)
	}

	v, shared, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
		return "again", nil
	})
	if err != nil || shared || v.(string) != "again" {
		t.Fatalf("Do after the flight = (%v, %v, %v), want a fresh compute", v, shared, err)
	}
}

// TestEngineErrorsNotCached: a failed compute is shared with a caller that
// joined its flight, and kept by nobody, so the next request retries.
func TestEngineErrorsNotCached(t *testing.T) {
	e := NewEngine(Config{Fingerprint: "fp", CacheBytes: 1 << 20})
	key := e.PageKey("p0", "boom")
	boom := errors.New("boom")

	inside, proceed := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
			close(inside)
			<-proceed
			return nil, boom
		})
		leader <- err
	}()
	<-inside
	waiter := make(chan error, 1)
	go func() {
		_, _, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
			return "ok", nil
		})
		waiter <- err
	}()
	time.Sleep(100 * time.Millisecond) // the waiter joins the leader's flight
	close(proceed)
	if err := <-leader; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want the leader's boom", err)
	}
	if c := e.Counters()["coalesced"]; c != 1 {
		t.Errorf("coalesced = %d, want 1", c)
	}

	var recomputed bool
	v, shared, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
		recomputed = true
		return "ok", nil
	})
	if !recomputed {
		t.Fatal("error was kept: compute did not rerun")
	}
	if err != nil || shared || v.(string) != "ok" {
		t.Fatalf("retry Do = (%v, %v, %v)", v, shared, err)
	}
}

// TestEngineLeaderPanicIsolated: a panicking compute propagates on the
// leader but leaves waiters with a typed error and the key unlocked.
func TestEngineLeaderPanicIsolated(t *testing.T) {
	e := NewEngine(Config{Fingerprint: "fp", CacheBytes: 1 << 20})
	key := e.PageKey("p0", "panic")

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader")
			}
		}()
		e.Do(context.Background(), key, func(context.Context) (any, error) {
			panic("compute exploded")
		})
	}()

	// The key must not be stuck: a fresh request computes normally.
	v, _, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
		return "recovered", nil
	})
	if err != nil || v.(string) != "recovered" {
		t.Fatalf("post-panic Do = (%v, %v)", v, err)
	}
}

func TestFlightWaiterSeesLeaderAbort(t *testing.T) {
	var g flightGroup
	key := testKey("k")
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.do(key, func() (any, error) {
			close(started)
			time.Sleep(20 * time.Millisecond)
			panic("leader dies")
		})
	}()
	<-started
	_, shared, err := g.do(key, func() (any, error) { return "fresh", nil })
	if shared {
		// Waiter joined the doomed flight: must get the typed abort error.
		if !errors.Is(err, errLeaderAborted) {
			t.Fatalf("waiter err = %v, want errLeaderAborted", err)
		}
	}
	// If not shared, the leader had already crashed and cleanup ran — the
	// fresh computation succeeding is equally correct.
}

// TestEngineShedsUnderSaturation: with MaxInFlight=1 and MaxQueue=0, a
// second concurrent distinct request is shed with ErrOverloaded while the
// first completes.
func TestEngineShedsUnderSaturation(t *testing.T) {
	e := NewEngine(Config{Fingerprint: "fp", CacheBytes: 1 << 20, MaxInFlight: 1, MaxQueue: 0})
	k1 := e.PageKey("p1", "one")
	k2 := e.PageKey("p2", "two")

	inside := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Do(context.Background(), k1, func(context.Context) (any, error) {
			close(inside)
			<-proceed
			return "one", nil
		})
		done <- err
	}()
	<-inside

	if _, _, err := e.Do(context.Background(), k2, func(context.Context) (any, error) {
		return "two", nil
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated Do = %v, want ErrOverloaded", err)
	}
	if c := e.Counters(); c["shed_overloaded"] != 1 {
		t.Errorf("shed_overloaded = %d, want 1", c["shed_overloaded"])
	}

	close(proceed)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
	// Capacity is free again.
	if _, _, err := e.Do(context.Background(), k2, func(context.Context) (any, error) {
		return "two", nil
	}); err != nil {
		t.Fatalf("post-drain Do: %v", err)
	}
}

func TestEngineNil(t *testing.T) {
	var e *Engine
	v, shared, err := e.Do(context.Background(), Key{}, func(context.Context) (any, error) {
		return "direct", nil
	})
	if err != nil || shared || v.(string) != "direct" {
		t.Fatalf("nil engine Do = (%v, %v, %v)", v, shared, err)
	}
	release, err := e.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil engine Acquire: %v", err)
	}
	release()
	if _, ok := e.Lookup(Key{}); ok {
		t.Error("nil engine Lookup hit")
	}
	e.Store(Key{}, "v", 1)
	c := e.Counters()
	for _, name := range CounterNames() {
		if v, ok := c[name]; !ok || v != 0 {
			t.Errorf("nil engine counter %q = %d, %v; want 0, present", name, v, ok)
		}
	}
	if len(c) != len(CounterNames()) {
		t.Errorf("Counters has %d keys, schema has %d", len(c), len(CounterNames()))
	}
}

// TestEngineCountersSchema: enabled and disabled engines expose the same keys.
func TestEngineCountersSchema(t *testing.T) {
	e := NewEngine(Config{Fingerprint: "fp", CacheBytes: 4096, MaxInFlight: 2, MaxQueue: DefaultMaxQueue})
	e.Do(context.Background(), e.PageKey("p", "x"), func(context.Context) (any, error) {
		return "v", nil
	})
	got := e.Counters()
	want := CounterNames()
	if len(got) != len(want) {
		t.Fatalf("Counters has %d keys, want %d", len(got), len(want))
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("counter %q missing", name)
		}
	}
	if got["max_in_flight"] != 2 || got["capacity_bytes"] != 4096 {
		t.Errorf("gauges = %v", got)
	}
}

// TestEngineConcurrentMixed is the race-detector workout: concurrent Do,
// Lookup/Store and Counters across many keys.
func TestEngineConcurrentMixed(t *testing.T) {
	e := NewEngine(Config{Fingerprint: "fp", CacheBytes: 32 << 10, MaxInFlight: 4, MaxQueue: 64})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := e.PageKey(fmt.Sprintf("p%d", i%7), "content")
				switch g % 3 {
				case 0:
					e.Do(ctx, key, func(context.Context) (any, error) { return i, nil })
				case 1:
					if _, ok := e.Lookup(key); !ok {
						e.Store(key, i, 32)
					}
				default:
					e.Counters()
				}
			}
		}(g)
	}
	wg.Wait()
}
