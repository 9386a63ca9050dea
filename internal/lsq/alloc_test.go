package lsq

import (
	"testing"

	"svwsim/internal/raceflag"
)

// Allocation-regression gates for the ring-buffer rewrite: a steady-state
// dispatch/search/commit cycle of every queue must perform zero heap
// allocations. These tests pin the property the zero-allocation hot loop
// depends on — an append creeping back into a queue operation fails here
// long before it shows up in a profile.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
		t.Errorf("%s: %v allocs per steady-state cycle, want 0", name, allocs)
	}
}

// TestStoreQueueSteadyStateZeroAlloc covers the conventional SQ / SSQ RSQ:
// a full dispatch-search-commit round trip.
func TestStoreQueueSteadyStateZeroAlloc(t *testing.T) {
	q := NewStoreQueue(64)
	var seq uint64
	requireZeroAllocs(t, "StoreQueue", func() {
		for i := 0; i < 8; i++ {
			q.Push(StoreRec{Seq: seq, PC: seq, Addr: seq * 8, Size: 8,
				AddrKnownAt: 1, DataKnownAt: 1})
			seq++
		}
		q.Search(seq, (seq-4)*8, 8, 10)
		q.Find(seq - 2)
		q.OldestUnknownAddr(seq, 10)
		for i := 0; i < 8; i++ {
			q.PopHead()
		}
	})
}

// TestFSQRemoveZeroAlloc covers the SSQ's FSQ, whose entries leave from the
// middle of the ring.
func TestFSQRemoveZeroAlloc(t *testing.T) {
	q := NewStoreQueue(16)
	var seq uint64
	requireZeroAllocs(t, "FSQ", func() {
		for i := 0; i < 4; i++ {
			q.Push(StoreRec{Seq: seq, Addr: seq * 8, Size: 8, AddrKnownAt: 1, DataKnownAt: 1})
			seq++
		}
		q.Remove(seq - 3) // middle removal, commit out of FSQ order
		q.SquashYoungerThan(seq - 2)
		for q.Len() > 0 {
			q.PopHead()
		}
	})
}

// TestLoadQueueSteadyStateZeroAlloc covers the LQ and — the search being
// optional — the NLQ: dispatch, issue update, premature-load search, commit.
func TestLoadQueueSteadyStateZeroAlloc(t *testing.T) {
	q := NewLoadQueue(128)
	var seq uint64
	requireZeroAllocs(t, "LoadQueue", func() {
		var slot int
		for i := 0; i < 8; i++ {
			if s := q.Push(LoadRec{Seq: seq, PC: seq, Addr: seq * 8, Size: 8}); i == 4 {
				slot = s
			}
			seq++
		}
		q.At(slot).Issued = true
		q.SearchPremature(seq-8, (seq-4)*8, 8)
		for i := 0; i < 8; i++ {
			q.PopHead()
		}
	})
}

// TestFwdBufferZeroAlloc covers the SSQ's per-bank best-effort buffers.
func TestFwdBufferZeroAlloc(t *testing.T) {
	b := NewFwdBuffer(8)
	var seq uint64
	requireZeroAllocs(t, "FwdBuffer", func() {
		for i := 0; i < 4; i++ {
			b.Insert(seq*8, 8, seq, seq)
			seq++
		}
		b.Probe(seq+1, (seq-2)*8, 8)
	})
}
