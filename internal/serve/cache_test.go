package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1 << 20)
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("value"), nil }

	v, hit, err := c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || hit || string(v) != "value" {
		t.Fatalf("cold get: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || !hit || string(v) != "value" {
		t.Fatalf("warm get: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestCacheGetPeeks: Get counts a hit only when the completed value is
// present; an absent or still-computing key counts nothing and leaves
// the miss to GetOrCompute.
func TestCacheGetPeeks(t *testing.T) {
	c := NewCache(1 << 20)
	if v, ok := c.Get("k"); ok || v != nil {
		t.Fatalf("Get on an empty cache = %q, %v", v, ok)
	}
	enter, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			close(enter)
			<-release
			return []byte("value"), nil
		})
	}()
	<-enter
	if _, ok := c.Get("k"); ok {
		t.Error("Get returned an in-flight value")
	}
	close(release)
	<-done
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats after absent Gets = %+v, want 0 hits / 1 miss", st)
	}
	if v, ok := c.Get("k"); !ok || string(v) != "value" {
		t.Fatalf("Get after compute = %q, %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheEviction(t *testing.T) {
	// Room for roughly two entries of ~(1+256+overhead) bytes.
	c := NewCache(2 * (260 + entryOverhead))
	val := make([]byte, 256)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("%d", i)
		if _, _, err := c.GetOrCompute(context.Background(), key, func() ([]byte, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	// Key "0" was least recently used and must be gone; "2" must hit.
	if _, hit, _ := c.GetOrCompute(context.Background(), "2", func() ([]byte, error) { return val, nil }); !hit {
		t.Error("most recent entry evicted")
	}
	if _, hit, _ := c.GetOrCompute(context.Background(), "0", func() ([]byte, error) { return val, nil }); hit {
		t.Error("LRU entry survived over-budget insert")
	}
}

func TestCacheOversizeValueNotStored(t *testing.T) {
	c := NewCache(64)
	big := make([]byte, 1024)
	for i := 0; i < 2; i++ {
		_, hit, err := c.GetOrCompute(context.Background(), "big", func() ([]byte, error) { return big, nil })
		if err != nil || hit {
			t.Fatalf("iteration %d: hit=%v err=%v, want recompute", i, hit, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize value was stored: %+v", st)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(1 << 20)
	var mu sync.Mutex
	calls := 0
	enter := make(chan struct{})
	release := make(chan struct{})
	compute := func() ([]byte, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		close(enter)
		<-release
		return []byte("once"), nil
	}

	var wg sync.WaitGroup
	results := make([]bool, 8) // hit flags
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.GetOrCompute(context.Background(), "k", compute)
		if err != nil {
			t.Error(err)
		}
		results[0] = hit
	}()
	<-enter // leader is inside compute
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hit, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
				t.Error("waiter ran compute")
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = hit
		}(i)
	}
	waitFor(t, func() bool { return c.pendingWaiters("k") == 7 })
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if results[0] {
		t.Error("leader reported a hit")
	}
	for i := 1; i < 8; i++ {
		if !results[i] {
			t.Errorf("waiter %d reported a miss", i)
		}
	}
	if st := c.Stats(); st.Hits != 7 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 7 hits / 1 miss", st)
	}
}

func TestCacheLeaderFailureDoesNotPoisonWaiters(t *testing.T) {
	c := NewCache(1 << 20)
	enter := make(chan struct{})
	release := make(chan struct{})
	failing := func() ([]byte, error) {
		close(enter)
		<-release
		return nil, context.Canceled // leader's own request was cancelled
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), "k", failing)
		leaderDone <- err
	}()
	<-enter

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		v, hit, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			return []byte("retried"), nil
		})
		if err != nil || hit || string(v) != "retried" {
			t.Errorf("waiter after leader failure: v=%q hit=%v err=%v", v, hit, err)
		}
	}()
	waitFor(t, func() bool { return c.pendingWaiters("k") == 1 })
	close(release)

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	<-waiterDone
}

func TestCacheWaiterCancellation(t *testing.T) {
	c := NewCache(1 << 20)
	enter := make(chan struct{})
	release := make(chan struct{})
	go c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		close(enter)
		<-release
		return []byte("v"), nil
	})
	<-enter

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, "k", nil)
		errc <- err
	}()
	waitFor(t, func() bool { return c.pendingWaiters("k") == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want Canceled", err)
	}
	waitFor(t, func() bool { return c.pendingWaiters("k") == 0 })
	close(release)
}
