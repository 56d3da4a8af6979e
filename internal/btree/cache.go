package btree

import (
	"container/list"
	"sync"
)

// Cache is a shared LRU page cache keyed by (reader identity, page number).
// It stores verified page payloads, leaves and internal pages alike, so hot
// queries never re-read or re-verify: those a reader read from storage past
// its checks, and those a Writer framed into the room the cache had free
// (see WriteThrough), which that run never reads back. A delta leaf is held
// packed (see FormatDelta), as its payload, beside the parsed header every
// seek reads. An entry is charged the bytes of its payload at
// its used length, not the 4 KB page it came in, against a fixed budget,
// so a budget covers as many bytes of a packed store in memory as on disk.
// Pages of a run that is gone leave with it (Drop) instead of waiting for
// the LRU order to reach them.
//
// The paper's micro-benchmarks use a 32 MB cache in addition to the write
// stores and Bloom filters (Section 6.1); NewCacheBytes(32<<20) reproduces
// that configuration. Clear supports the query experiments, which drop all
// caches before each run (Section 6.4).
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // of *cacheEntry, front = most recent
	index  map[cacheKey]*list.Element
	// resident holds the bytes charged per reader identity, so that Drop
	// stops once an identity holds nothing; an identity with nothing cached
	// has no entry.
	resident map[uint64]int64

	hits, misses int64
}

type cacheKey struct {
	reader uint64
	page   uint64
}

// page is a verified page as readers and the cache hold it: the payload
// cut to the bytes its count entries occupy, that count and, for a delta
// leaf, the parsed header of its packed form (see leaf). A packed payload's
// capacity runs 8 bytes past its length, which getBits may read; size is
// what the page is charged. A page is immutable once built, so iterators
// and the cache share it by pointer.
type page struct {
	payload []byte
	count   int
	leaf    leaf
}

func (p *page) size() int64 { return int64(len(p.payload)) }

type cacheEntry struct {
	key cacheKey
	*page
}

// NewCacheBytes returns a cache budgeted at the given total bytes. A
// budget <= 0 yields a cache that stores nothing (but still counts
// misses).
func NewCacheBytes(bytes int64) *Cache {
	return &Cache{
		budget:   bytes,
		lru:      list.New(),
		index:    make(map[cacheKey]*list.Element),
		resident: make(map[uint64]int64),
	}
}

func (c *Cache) get(reader, pageNo uint64) *page {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[cacheKey{reader, pageNo}]
	if !ok {
		c.misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).page
}

func (c *Cache) put(reader, pageNo uint64, p *page) {
	if c.budget <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(cacheKey{reader, pageNo}, p)
	// Evict from the cold end, but never the entry just touched: a single
	// oversized entry may transiently exceed the budget by itself.
	for c.used > c.budget && c.lru.Len() > 1 {
		c.remove(c.lru.Back())
	}
}

// putIfRoom caches p, as the most recent entry, only if it fits the budget
// beside what the cache holds: unlike put it evicts nothing. It reports
// whether p was cached. Writers use it (see Writer.WriteThrough), so that
// the pages a build writes never displace pages queries read.
func (c *Cache) putIfRoom(reader, pageNo uint64, p *page) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.used+p.size() > c.budget {
		return false
	}
	c.insert(cacheKey{reader, pageNo}, p)
	return true
}

// insert makes p the most recent entry under key, replacing any page held
// there; the caller holds c.mu.
func (c *Cache) insert(key cacheKey, p *page) {
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.used += p.size() - e.size()
		c.resident[key.reader] += p.size() - e.size()
		e.page = p
		return
	}
	c.index[key] = c.lru.PushFront(&cacheEntry{key: key, page: p})
	c.used += p.size()
	c.resident[key.reader] += p.size()
}

// remove takes one entry out of the cache; the caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.index, e.key)
	c.used -= e.size()
	if c.resident[e.key.reader] -= e.size(); c.resident[e.key.reader] == 0 {
		delete(c.resident, e.key.reader)
	}
}

// Drop forgets every page cached under the identity id (see
// Reader.CacheID and Writer.CacheID), for a caller discarding the run:
// nothing will ask for those pages again, and left alone they stay charged
// until eviction happens to reach them. It walks the index under the lock
// until the identity holds nothing, which suits runs dropped per commit,
// not per query. Drop on a nil Cache does nothing.
func (c *Cache) Drop(id uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.index {
		if c.resident[id] == 0 {
			return
		}
		if key.reader == id {
			c.remove(el)
		}
	}
}

// Clear drops all cached pages and resets hit/miss counters.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.index = make(map[cacheKey]*list.Element)
	c.resident = make(map[uint64]int64)
	c.used = 0
	c.hits, c.misses = 0, 0
}

// Len returns the number of cached pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// SizeBytes returns the bytes currently charged against the budget.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
