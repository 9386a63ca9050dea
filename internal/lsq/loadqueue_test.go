package lsq

import "testing"

func TestLoadQueueBasics(t *testing.T) {
	q := NewLoadQueue(4)
	q.Push(LoadRec{Seq: 1})
	slot := q.Push(LoadRec{Seq: 2})
	q.Push(LoadRec{Seq: 4})
	if q.Len() != 3 || q.Cap() != 4 || q.Full() {
		t.Fatal("geometry")
	}
	if q.At(slot).Seq != 2 {
		t.Error("slot")
	}
	if n := q.SquashYoungerOrEqual(2); n != 2 {
		t.Errorf("squashed %d", n)
	}
	if q.Head().Seq != 1 {
		t.Error("head")
	}
	q.PopHead()
	if q.Len() != 0 {
		t.Error("pop")
	}
}

func TestSearchPrematureFindsStaleLoad(t *testing.T) {
	q := NewLoadQueue(8)
	// Load 10 read cache (no forwarding) at 0x100.
	q.Push(LoadRec{Seq: 10, Addr: 0x100, Size: 8, Issued: true})
	ld, found := q.SearchPremature(5, 0x100, 8)
	if !found || ld.Seq != 10 {
		t.Fatalf("premature load not found: %v %v", ld, found)
	}
}

func TestSearchPrematureSkipsUnissued(t *testing.T) {
	q := NewLoadQueue(8)
	q.Push(LoadRec{Seq: 10, Addr: 0x100, Size: 8, Issued: false})
	if _, found := q.SearchPremature(5, 0x100, 8); found {
		t.Error("unissued load flagged")
	}
}

func TestSearchPrematureSkipsOlderLoads(t *testing.T) {
	q := NewLoadQueue(8)
	q.Push(LoadRec{Seq: 3, Addr: 0x100, Size: 8, Issued: true})
	if _, found := q.SearchPremature(5, 0x100, 8); found {
		t.Error("load older than the store flagged")
	}
}

func TestSearchPrematureRespectsForwarding(t *testing.T) {
	q := NewLoadQueue(8)
	// Load forwarded from store 7, which is younger than the searching
	// store 5: correctly ordered.
	q.Push(LoadRec{Seq: 10, Addr: 0x100, Size: 8, Issued: true, FwdOK: true, FwdSeq: 7})
	if _, found := q.SearchPremature(5, 0x100, 8); found {
		t.Error("correctly forwarded load flagged")
	}
	// Forwarded from store 3, older than store 5: the load missed store
	// 5's value.
	q2 := NewLoadQueue(8)
	q2.Push(LoadRec{Seq: 10, Addr: 0x100, Size: 8, Issued: true, FwdOK: true, FwdSeq: 3})
	if _, found := q2.SearchPremature(5, 0x100, 8); !found {
		t.Error("stale-forwarded load not flagged")
	}
}

func TestSearchPrematureSkipsEliminated(t *testing.T) {
	// Eliminated loads have empty LQ entries; the conventional search
	// cannot check them (paper §2.4) — re-execution must.
	q := NewLoadQueue(8)
	q.Push(LoadRec{Seq: 10, Addr: 0x100, Size: 8, Issued: true, Eliminated: true})
	if _, found := q.SearchPremature(5, 0x100, 8); found {
		t.Error("eliminated load flagged by LQ search")
	}
}

func TestSearchPrematureOldestWins(t *testing.T) {
	q := NewLoadQueue(8)
	q.Push(LoadRec{Seq: 10, Addr: 0x100, Size: 8, Issued: true})
	q.Push(LoadRec{Seq: 12, Addr: 0x100, Size: 8, Issued: true})
	ld, found := q.SearchPremature(5, 0x100, 8)
	if !found || ld.Seq != 10 {
		t.Error("flush point must be the oldest premature load")
	}
}

func TestFwdBufferLatestOlderMatch(t *testing.T) {
	b := NewFwdBuffer(4)
	b.Insert(0x100, 8, 0xAA, 1)
	b.Insert(0x100, 8, 0xBB, 2)
	v, seq, ok := b.Probe(10, 0x100, 8)
	if !ok || v != 0xBB || seq != 2 {
		t.Fatalf("probe = %#x/%d/%v", v, seq, ok)
	}
	// Entries from stores younger than (or equal to) the load never
	// forward backward in program order.
	if _, _, ok := b.Probe(1, 0x100, 8); ok {
		t.Error("younger store forwarded")
	}
	// A load between the two stores sees only the older one.
	if v2, seq2, ok := b.Probe(2, 0x100, 8); !ok || v2 != 0xAA || seq2 != 1 {
		t.Errorf("intermediate probe = %#x/%d/%v", v2, seq2, ok)
	}
	// Containment only.
	if _, _, ok := b.Probe(10, 0x0FC, 8); ok {
		t.Error("partial match forwarded")
	}
	v, _, ok = b.Probe(10, 0x104, 4)
	if !ok || v != 0 {
		t.Errorf("contained sub-access = %#x/%v", v, ok)
	}
}

func TestFwdBufferFIFOReplacement(t *testing.T) {
	b := NewFwdBuffer(2)
	b.Insert(0x100, 8, 1, 1)
	b.Insert(0x200, 8, 2, 2)
	b.Insert(0x300, 8, 3, 3) // evicts 0x100
	if _, _, ok := b.Probe(10, 0x100, 8); ok {
		t.Error("evicted entry forwarded")
	}
	if _, _, ok := b.Probe(10, 0x200, 8); !ok {
		t.Error("retained entry lost")
	}
}

func TestSteering(t *testing.T) {
	s := NewSteering()
	if s.LoadSteered(0x100) || s.StoreSteered(0x200) {
		t.Error("initially clear")
	}
	s.TagLoad(0x100)
	s.TagStore(0x200)
	s.TagLoad(0x100) // idempotent
	s.TagLoad(0)     // PC 0 is a sentinel, ignored
	if !s.LoadSteered(0x100) || !s.StoreSteered(0x200) {
		t.Error("tags lost")
	}
	if s.LoadTags != 1 || s.StoreTags != 1 {
		t.Errorf("tag counters = %d/%d", s.LoadTags, s.StoreTags)
	}
	l, st := s.Counts()
	if l != 1 || st != 1 {
		t.Error("counts")
	}
}
