package store

import (
	"context"
	"errors"
)

// Cold-miss singleflight. N concurrent requests for the same uncached key
// are the serving layer's dogpile: without coordination each one admits
// itself, runs the engine, marshals the result and write-throughs the same
// bytes to disk — N computations and N fsyncs for one answer. A Flight
// coalesces them: the first caller to claim a key becomes its leader and
// computes; everyone else waits on the leader's flight and is handed the
// finished bytes, costing one channel receive instead of a simulation
// (the recompute-vs-fetch economics of value recomputation applied to the
// store). svwd's cell resolver is the one caller: its flights are the
// process's only singleflight, and the engines it runs beneath them last
// one batch. Coalesced waits are counted in Stats.Coalesced, surfaced on
// /v1/stats and as svw_store_coalesced_total.

// ErrFlightAbandoned resolves a flight whose leader exited without
// completing it (a panic, a lost client) — waiters see this instead of
// hanging forever.
var ErrFlightAbandoned = errors.New("store: in-flight computation abandoned")

// Flight is one in-progress computation of a key, shared by its leader
// (who must Complete it exactly once; later Completes are no-ops) and any
// number of waiters.
type Flight struct {
	s    *Store
	key  string
	done chan struct{}
	val  []byte
	err  error
}

// BeginFlight claims key's in-flight slot. The first caller gets
// leader=true and MUST eventually call Complete — on success, failure,
// and every abandonment path — or waiters block until their contexts
// expire. A later caller gets the existing flight with leader=false (and
// one Coalesced count) and should Wait on it.
//
// BeginFlight does not probe the store; callers coalescing on cached keys
// should Get first, and Get again after winning the claim, since a flight
// that completed in between left its bytes in the store.
func (s *Store) BeginFlight(key string) (*Flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[key]; ok {
		s.coalesced++
		return f, false
	}
	f := &Flight{s: s, key: key, done: make(chan struct{})}
	s.flights[key] = f
	return f, true
}

// Complete resolves the flight: waiters wake with (val, err), and with
// persist=true a successful value is written through the store's tiers
// (pass false when val already came out of a store and re-persisting it
// would be redundant). Only the first Complete counts; the rest are
// no-ops, so "defer Complete(nil, ErrFlightAbandoned, false)" is a safe
// leader-side backstop.
func (f *Flight) Complete(val []byte, err error, persist bool) {
	s := f.s
	s.mu.Lock()
	select {
	case <-f.done:
		s.mu.Unlock()
		return // already completed
	default:
	}
	f.val, f.err = val, err
	delete(s.flights, f.key)
	if err == nil && persist {
		s.putMemLocked(f.key, val, false)
	}
	close(f.done)
	s.mu.Unlock()
	if err == nil && persist {
		s.diskPut(f.key, val)
	}
}

// Wait blocks until the flight completes or ctx ends, returning the
// leader's result (or ctx's error).
func (f *Flight) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
