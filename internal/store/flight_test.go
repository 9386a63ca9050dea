package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCoalesced polls until n callers have joined the in-flight
// computation (Stats().Coalesced == n) so tests can release a blocked
// leader only after every waiter is actually waiting.
func waitCoalesced(t *testing.T, s *Store, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Stats().Coalesced == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", s.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The dogpile contract: of N concurrent claims on one cold key exactly one
// leads; the other N-1 coalesce, are counted, and receive the leader's
// bytes, which one write-through lands in both tiers.
func TestFlightCoalesces(t *testing.T) {
	const waiters = 7
	s := openStore(t, Options{MemoryEntries: 4, Dir: t.TempDir()})

	var leaders atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, 1+waiters)
	for i := 0; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, leader := s.BeginFlight("key")
			if leader {
				leaders.Add(1)
				<-release // hold the flight open until every waiter has joined
				f.Complete([]byte("computed"), nil, true)
			}
			val, err := f.Wait(context.Background())
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = val
		}(i)
	}
	waitCoalesced(t, s, waiters)
	close(release)
	wg.Wait()

	if n := leaders.Load(); n != 1 {
		t.Fatalf("%d callers led the flight, want exactly 1", n)
	}
	for i := 0; i <= waiters; i++ {
		if !bytes.Equal(results[i], []byte("computed")) {
			t.Fatalf("caller %d got %q", i, results[i])
		}
	}
	if st := s.Stats(); st.Coalesced != waiters {
		t.Fatalf("Stats.Coalesced = %d, want %d", st.Coalesced, waiters)
	}
	if _, o := s.Get("key"); o != OriginMemory {
		t.Fatalf("origin %v after compute, want memory", o)
	}
	if v, ok := s.disk.Get("key"); !ok || !bytes.Equal(v, []byte("computed")) {
		t.Fatalf("disk tier: %q, %v, want the computed bytes", v, ok)
	}
}

// A failing leader fails its waiters too — once, without storing the
// failure: the next claim leads a fresh flight.
func TestFlightErrorSharedNotCached(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 4})
	wantErr := errors.New("engine exploded")

	f, leader := s.BeginFlight("key")
	if !leader {
		t.Fatal("first claim was not leader")
	}
	waiter, leader := s.BeginFlight("key")
	if leader {
		t.Fatal("second claim led a flight already in progress")
	}
	f.Complete(nil, wantErr, true)
	if _, err := waiter.Wait(context.Background()); !errors.Is(err, wantErr) {
		t.Fatalf("waiter err = %v, want %v", err, wantErr)
	}
	if _, o := s.Get("key"); o != OriginMiss {
		t.Fatalf("origin %v after a failed flight, want the failure unstored", o)
	}
	if _, leader := s.BeginFlight("key"); !leader {
		t.Fatal("claim after a failed flight did not lead a fresh one")
	}
}

// A leader that panics must not hang its waiters: the deferred
// Complete(nil, ErrFlightAbandoned, false) backstop resolves the flight.
func TestFlightAbandonReleasesWaiters(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 4})
	f, _ := s.BeginFlight("key")
	waiter, _ := s.BeginFlight("key")
	go func() {
		defer func() { recover() }()
		defer f.Complete(nil, ErrFlightAbandoned, false)
		panic("boom")
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := waiter.Wait(ctx); !errors.Is(err, ErrFlightAbandoned) {
		t.Fatalf("waiter err = %v, want ErrFlightAbandoned", err)
	}
}

// A waiter's context cancels its wait, not the flight.
func TestFlightWaitHonorsContext(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 4})
	f, leader := s.BeginFlight("key")
	if !leader {
		t.Fatal("first claim was not leader")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	// The flight is still live; completing it serves later waiters.
	f.Complete([]byte("late"), nil, true)
	if v, err := f.Wait(context.Background()); err != nil || !bytes.Equal(v, []byte("late")) {
		t.Fatalf("Wait after Complete = %q, %v", v, err)
	}
}

// Complete is idempotent: only the first resolution counts.
func TestFlightCompleteIdempotent(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 4})
	f, _ := s.BeginFlight("key")
	f.Complete([]byte("first"), nil, true)
	f.Complete([]byte("second"), nil, true)
	f.Complete(nil, ErrFlightAbandoned, false)
	if v, err := f.Wait(context.Background()); err != nil || !bytes.Equal(v, []byte("first")) {
		t.Fatalf("Wait = %q, %v, want the first Complete to win", v, err)
	}
	if v, o := s.Get("key"); o != OriginMemory || !bytes.Equal(v, []byte("first")) {
		t.Fatalf("stored %q, %v", v, o)
	}
}

// Completing with persist=false resolves waiters without writing the
// store — the late-hit path, where the bytes already came from it.
func TestFlightCompleteNoPersist(t *testing.T) {
	s := openStore(t, Options{MemoryEntries: 4})
	f, _ := s.BeginFlight("key")
	f.Complete([]byte("from-store"), nil, false)
	if _, o := s.Get("key"); o != OriginMiss {
		t.Fatalf("origin %v, want persist=false to leave the store alone", o)
	}
}
