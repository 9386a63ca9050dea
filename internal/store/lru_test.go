package store

import "testing"

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU[string]()
	l.Put("a", "A")
	l.Put("b", "B")
	l.Get("a") // refresh a: b is now the LRU entry
	key, val, ok := l.EvictOldest()
	if !ok || key != "b" || val != "B" {
		t.Fatalf("evicted %q=%q ok=%v, want b=B", key, val, ok)
	}
	if _, ok := l.Peek("a"); !ok {
		t.Fatal("a was evicted despite being recently used")
	}
	if l.Len() != 1 {
		t.Fatalf("len %d, want 1", l.Len())
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	l := NewLRU[string]()
	l.Put("a", "A1")
	l.Put("b", "B")
	l.Put("a", "A2") // refresh + replace: b becomes the LRU entry
	if v, _ := l.Peek("a"); v != "A2" {
		t.Fatalf("got %q, want refreshed value", v)
	}
	if l.Len() != 2 {
		t.Fatalf("duplicate put grew the index to %d", l.Len())
	}
	if key, _, _ := l.EvictOldest(); key != "b" {
		t.Fatalf("evicted %q, want b (a was refreshed by Put)", key)
	}
}

func TestLRUPeekDoesNotRefresh(t *testing.T) {
	l := NewLRU[string]()
	l.Put("a", "A")
	l.Put("b", "B")
	l.Peek("a") // must NOT refresh
	if key, _, _ := l.EvictOldest(); key != "a" {
		t.Fatalf("evicted %q, want a (Peek must not refresh recency)", key)
	}
}

func TestLRUDelete(t *testing.T) {
	l := NewLRU[string]()
	l.Put("a", "A")
	l.Delete("a")
	l.Delete("ghost") // no-op
	if _, ok := l.Peek("a"); ok || l.Len() != 0 {
		t.Fatalf("a survived Delete (len %d)", l.Len())
	}
}
