package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// memoCap bounds the key memo. An entry holds a 32-byte digest, the
// 64-character hex cache key and its list and map bookkeeping, about
// 260 bytes of heap, so a full memo stays near 1 MiB.
const memoCap = 4096

// bodyDigest is the key-memo address of one request: SHA-256 over the
// endpoint name and the raw request body. Endpoint names hold no
// newline, so the separator keeps the encoding unambiguous.
func bodyDigest(endpoint string, body []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{'\n'})
	h.Write(body)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// memoEntry is what the full path derived from one request body.
type memoEntry struct {
	// key is the result-cache key, cacheKey(endpoint, canonical
	// netlist, canonical options).
	key string
	// timeoutMS is the body's options.timeout_ms (0 = server default).
	timeoutMS int
	// async records that the envelope said "mode":"async". The Prefer
	// header is not part of the body and is read on every request.
	async bool
}

// keyMemo is a bounded LRU map from bodyDigest to the memoEntry the
// full path derived from that body. Derivation is a pure function of
// the endpoint and the body, so the memo only short-cuts computing a
// cache key and never changes one.
type keyMemo struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[[sha256.Size]byte]*list.Element

	hits, misses atomic.Int64
}

type memoItem struct {
	digest [sha256.Size]byte
	entry  memoEntry
}

// newKeyMemo returns an empty memo holding at most capacity entries.
func newKeyMemo(capacity int) *keyMemo {
	return &keyMemo{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[[sha256.Size]byte]*list.Element),
	}
}

// get returns the entry memoized for digest, counting a hit or a miss.
func (m *keyMemo) get(digest [sha256.Size]byte) (memoEntry, bool) {
	m.mu.Lock()
	el, ok := m.items[digest]
	var e memoEntry
	if ok {
		m.ll.MoveToFront(el)
		e = el.Value.(*memoItem).entry
	}
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return e, ok
}

// put memoizes e for digest, evicting the least recently used entries
// beyond the cap.
func (m *keyMemo) put(digest [sha256.Size]byte, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[digest]; ok {
		m.ll.MoveToFront(el)
		el.Value.(*memoItem).entry = e
		return
	}
	m.items[digest] = m.ll.PushFront(&memoItem{digest: digest, entry: e})
	for m.ll.Len() > m.cap {
		back := m.ll.Back()
		m.ll.Remove(back)
		delete(m.items, back.Value.(*memoItem).digest)
	}
}

// MemoStats is a point-in-time snapshot of the key memo counters.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// stats snapshots the memo counters.
func (m *keyMemo) stats() MemoStats {
	m.mu.Lock()
	entries := m.ll.Len()
	m.mu.Unlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: entries}
}
