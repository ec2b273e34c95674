package pipeline

import (
	"container/list"
	"sync"
)

// lruCache is the bounded, mutex-guarded LRU map behind AnalyzeReport's
// in-memory tier: report keys to canonical Report JSON bytes. The bytes are
// shared between callers and never modified.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val []byte
}

func newLRU(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
