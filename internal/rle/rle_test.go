package rle

import (
	"testing"
	"testing/quick"

	"svwsim/internal/isa"
)

func newIT() *Table { return New(DefaultConfig()) }

func TestSigDeterministicAndDiscriminating(t *testing.T) {
	a := Sig(isa.OpLdq, 5, 16)
	if a != Sig(isa.OpLdq, 5, 16) {
		t.Error("sig not deterministic")
	}
	for _, other := range []uint64{
		Sig(isa.OpLdl, 5, 16), // different width
		Sig(isa.OpLdq, 6, 16), // different base register
		Sig(isa.OpLdq, 5, 24), // different displacement
	} {
		if other == a {
			t.Error("sig collision between distinct operations")
		}
	}
}

func TestSigQuickNoTrivialCollisions(t *testing.T) {
	f := func(b1, b2 uint16, d1, d2 int16) bool {
		if b1 == b2 && d1 == d2 {
			return true
		}
		return Sig(isa.OpLdq, int(b1), int64(d1)) != Sig(isa.OpLdq, int(b2), int64(d2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadOpFor(t *testing.T) {
	pairs := map[isa.Op]isa.Op{
		isa.OpStb: isa.OpLdb, isa.OpStw: isa.OpLdw,
		isa.OpStl: isa.OpLdl, isa.OpStq: isa.OpLdq,
		isa.OpLdq: isa.OpLdq,
	}
	for in, want := range pairs {
		got, ok := LoadOpFor(in)
		if !ok || got != want {
			t.Errorf("LoadOpFor(%v) = %v/%v", in, got, ok)
		}
	}
	if _, ok := LoadOpFor(isa.OpAdd); ok {
		t.Error("non-memory op should not map")
	}
}

func TestInsertLookup(t *testing.T) {
	it := newIT()
	sig := Sig(isa.OpLdq, 5, 16)
	it.Insert(Entry{Sig: sig, DestPhys: 42, BasePhys: 5, SSN: 7, Kind: KindReuse})
	e, handle := it.Lookup(sig, true)
	if e == nil || e.DestPhys != 42 || e.SSN != 7 || handle < 0 {
		t.Fatalf("lookup = %+v / %d", e, handle)
	}
	if e, _ := it.Lookup(Sig(isa.OpLdq, 5, 24), true); e != nil {
		t.Error("wrong signature matched")
	}
}

func TestInsertReplacesSameSig(t *testing.T) {
	it := newIT()
	sig := Sig(isa.OpLdq, 5, 16)
	it.Insert(Entry{Sig: sig, DestPhys: 1, BasePhys: 5})
	_, evicted, was := it.Insert(Entry{Sig: sig, DestPhys: 2, BasePhys: 5})
	if !was || evicted.DestPhys != 1 {
		t.Fatalf("same-sig insert should replace: %v %+v", was, evicted)
	}
	e, _ := it.Lookup(sig, true)
	if e.DestPhys != 2 {
		t.Error("newest entry should win")
	}
	if it.Len() != 1 {
		t.Errorf("len = %d", it.Len())
	}
}

func TestSetLRUEviction(t *testing.T) {
	it := New(Config{Sets: 1, Ways: 2})
	s1, s2, s3 := Sig(isa.OpLdq, 1, 0), Sig(isa.OpLdq, 2, 0), Sig(isa.OpLdq, 3, 0)
	it.Insert(Entry{Sig: s1, DestPhys: 1, BasePhys: 1})
	it.Insert(Entry{Sig: s2, DestPhys: 2, BasePhys: 2})
	it.Lookup(s1, true) // refresh s1: s2 becomes LRU
	_, evicted, was := it.Insert(Entry{Sig: s3, DestPhys: 3, BasePhys: 3})
	if !was || evicted.DestPhys != 2 {
		t.Fatalf("LRU eviction picked %+v", evicted)
	}
	if e, _ := it.Lookup(s1, true); e == nil {
		t.Error("recently used entry evicted")
	}
}

func TestSquashMarking(t *testing.T) {
	it := newIT()
	sig := Sig(isa.OpLdq, 5, 16)
	handle, _, _ := it.Insert(Entry{Sig: sig, DestPhys: 42, BasePhys: 5})
	it.MarkSquashed(handle, sig)
	// Squash-marked entries only match when squash reuse is allowed.
	if e, _ := it.Lookup(sig, false); e != nil {
		t.Error("squash-marked entry matched with squash reuse disabled")
	}
	e, _ := it.Lookup(sig, true)
	if e == nil || !e.FromSquash {
		t.Error("squash-marked entry should match with squash reuse enabled")
	}
	// Marking a stale handle (sig replaced) is a no-op.
	it2 := newIT()
	h2, _, _ := it2.Insert(Entry{Sig: sig, DestPhys: 1, BasePhys: 5})
	it2.Insert(Entry{Sig: sig, DestPhys: 2, BasePhys: 5})
	it2.MarkSquashed(h2, Sig(isa.OpLdq, 9, 9))
	if e, _ := it2.Lookup(sig, false); e == nil {
		t.Error("stale squash mark corrupted a live entry")
	}
}

func TestInvalidateByBase(t *testing.T) {
	it := newIT()
	it.Insert(Entry{Sig: Sig(isa.OpLdq, 5, 0), DestPhys: 10, BasePhys: 5})
	it.Insert(Entry{Sig: Sig(isa.OpLdq, 5, 8), DestPhys: 11, BasePhys: 5})
	it.Insert(Entry{Sig: Sig(isa.OpLdq, 6, 0), DestPhys: 12, BasePhys: 6})
	out := it.InvalidateByBase(5, nil)
	if len(out) != 2 {
		t.Fatalf("invalidated %d entries, want 2", len(out))
	}
	if it.Len() != 1 {
		t.Errorf("len = %d", it.Len())
	}
	if e, _ := it.Lookup(Sig(isa.OpLdq, 6, 0), true); e == nil {
		t.Error("unrelated entry removed")
	}
}

// TestInvalidateByBaseMatchesScan drives a small table through random
// inserts, evictions and invalidations and checks every InvalidateByBase
// against a walk of the whole table: the same entries, in table order
// (the owner frees their registers in that order).
func TestInvalidateByBaseMatchesScan(t *testing.T) {
	it := New(Config{Sets: 4, Ways: 2})
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for step := 0; step < 20_000; step++ {
		switch next(5) {
		case 0, 1:
			base := next(6)
			it.Insert(Entry{Sig: Sig(isa.OpLdq, base, int64(next(8))), DestPhys: next(50), BasePhys: base})
		case 2:
			it.InvalidateHandle(next(8), it.entries[next(8)].Sig)
		case 3:
			it.EvictOne()
		default:
			p := next(6)
			var want []Entry
			for _, e := range it.entries {
				if e.Valid && e.BasePhys == p {
					want = append(want, e)
				}
			}
			got := it.InvalidateByBase(p, nil)
			if len(got) != len(want) {
				t.Fatalf("step %d: invalidated %d entries of p%d, want %d", step, len(got), p, len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: entry %d = %+v, want %+v", step, i, got[i], want[i])
				}
			}
		}
	}
}

func TestInvalidateHandle(t *testing.T) {
	it := newIT()
	sig := Sig(isa.OpLdq, 5, 16)
	handle, _, _ := it.Insert(Entry{Sig: sig, DestPhys: 42, BasePhys: 5})
	e, ok := it.InvalidateHandle(handle, sig)
	if !ok || e.DestPhys != 42 {
		t.Fatal("invalidate by handle failed")
	}
	if _, ok := it.InvalidateHandle(handle, sig); ok {
		t.Error("double invalidate should fail")
	}
	if e, _ := it.Lookup(sig, true); e != nil {
		t.Error("invalidated entry still matches")
	}
}

func TestEvictOneAndClear(t *testing.T) {
	it := newIT()
	if _, ok := it.EvictOne(); ok {
		t.Error("empty table evicted something")
	}
	it.Insert(Entry{Sig: Sig(isa.OpLdq, 1, 0), DestPhys: 1, BasePhys: 1})
	it.Insert(Entry{Sig: Sig(isa.OpLdq, 2, 0), DestPhys: 2, BasePhys: 2})
	it.Lookup(Sig(isa.OpLdq, 1, 0), true) // entry 1 recently used
	e, ok := it.EvictOne()
	if !ok || e.DestPhys != 2 {
		t.Errorf("EvictOne picked %+v", e)
	}
	cleared := it.Clear()
	if len(cleared) != 1 || it.Len() != 0 {
		t.Errorf("clear returned %d entries, len=%d", len(cleared), it.Len())
	}
}
