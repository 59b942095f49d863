package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// entryOverhead approximates the bookkeeping bytes charged per cache
// entry on top of the key and value (list element, map slot, struct).
const entryOverhead = 160

// Cache is a content-addressed LRU result cache with a byte budget and
// single-flight deduplication: concurrent requests for the same key run
// the computation exactly once. The leader counts as a miss; waiters
// that receive the leader's value count as hits, so two identical
// concurrent requests record 1 miss + 1 hit and one engine execution.
//
// If the leader fails (including by its own request being cancelled),
// waiters do not inherit the failure: each retries as a prospective new
// leader, so one cancelled client cannot poison the key for others.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // completed entries
	pending  map[string]*flight       // in-progress computations

	hits, misses, evictions atomic.Int64
}

type centry struct {
	key  string
	val  []byte
	size int64
}

// flight is one in-progress computation; val/err are written before
// done is closed.
type flight struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int
}

// NewCache returns a cache bounded to roughly capacity bytes of keys +
// values. A capacity too small to hold a result simply stores nothing
// for it; single-flight deduplication works regardless.
func NewCache(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		pending:  make(map[string]*flight),
	}
}

// Get peeks at the completed entry for key. A present key counts as a
// hit and becomes most recently used; an absent one (never computed,
// evicted, or still in flight) counts nothing, so the GetOrCompute a
// caller falls back to counts the miss or the shared flight as usual.
// The bytes must not be mutated by the caller.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	v := el.Value.(*centry).val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// GetOrCompute returns the cached value for key, or runs compute to
// produce it. hit reports whether the value came from the cache or an
// in-flight leader (bytes must not be mutated by the caller). ctx
// bounds only the wait for an in-flight leader; compute is responsible
// for observing its own context.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*centry).val
			c.mu.Unlock()
			c.hits.Add(1)
			return v, true, nil
		}
		if f, ok := c.pending[key]; ok {
			f.waiters++
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.hits.Add(1)
					return f.val, true, nil
				}
				// The leader failed; its error (for instance its own
				// cancellation) says nothing about this request. Loop
				// and race to become the new leader.
				if cerr := ctx.Err(); cerr != nil {
					return nil, false, cerr
				}
				continue
			case <-ctx.Done():
				c.mu.Lock()
				f.waiters--
				c.mu.Unlock()
				return nil, false, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.pending[key] = f
		c.mu.Unlock()

		c.misses.Add(1)
		v, cerr := compute()
		f.val, f.err = v, cerr
		c.mu.Lock()
		delete(c.pending, key)
		if cerr == nil {
			c.insertLocked(key, v)
		}
		c.mu.Unlock()
		close(f.done)
		return v, false, cerr
	}
}

// insertLocked stores a completed value, evicting from the LRU tail to
// stay under the byte budget. Values larger than the whole budget are
// not stored.
func (c *Cache) insertLocked(key string, val []byte) {
	size := int64(len(key)+len(val)) + entryOverhead
	if size > c.capacity {
		return
	}
	el := c.ll.PushFront(&centry{key: key, val: val, size: size})
	c.items[key] = el
	c.bytes += size
	for c.bytes > c.capacity {
		back := c.ll.Back()
		if back == nil || back == el {
			break
		}
		e := back.Value.(*centry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions.Add(1)
	}
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := len(c.items), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		Capacity:  c.capacity,
	}
}

// pendingWaiters reports how many requests are currently blocked on the
// in-flight computation for key (test coordination helper).
func (c *Cache) pendingWaiters(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.pending[key]; ok {
		return f.waiters
	}
	return 0
}
