package store

import "container/list"

// LRU is a recency-ordered string-keyed index: a map over an intrusive
// list, front = most recently used. It is the one LRU implementation in
// the repository: the store's memory tier and the disk tier's GC index
// both order their entries with it.
//
// LRU is not safe for concurrent use; callers hold their own lock (Store
// its tier mutex, Disk its index mutex).
type LRU[V any] struct {
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns an empty index.
func NewLRU[V any]() *LRU[V] {
	return &LRU[V]{ll: list.New(), items: make(map[string]*list.Element)}
}

// Len returns the number of entries.
func (l *LRU[V]) Len() int { return l.ll.Len() }

// Get returns the value under key and refreshes its recency.
func (l *LRU[V]) Get(key string) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Peek returns the value under key without touching recency.
func (l *LRU[V]) Peek(key string) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores val under key as the most recently used entry, replacing any
// existing value.
func (l *LRU[V]) Put(key string, val V) {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	l.items[key] = l.ll.PushFront(&lruEntry[V]{key: key, val: val})
}

// Delete removes key if present.
func (l *LRU[V]) Delete(key string) {
	if el, ok := l.items[key]; ok {
		l.ll.Remove(el)
		delete(l.items, key)
	}
}

// EvictOldest removes and returns the least-recently-used entry; false
// is returned when the index is empty.
func (l *LRU[V]) EvictOldest() (string, V, bool) {
	el := l.ll.Back()
	if el == nil {
		var zero V
		return "", zero, false
	}
	ent := el.Value.(*lruEntry[V])
	l.ll.Remove(el)
	delete(l.items, ent.key)
	return ent.key, ent.val, true
}
