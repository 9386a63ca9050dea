package server

import (
	"fmt"
	"net/http"
	"testing"

	"svwsim/internal/api"
	"svwsim/internal/sim/engine"
)

// The fabric checkpoint headline: a sampled run at one member persists its
// fast-forward warm state, and a sampled run of a DIFFERENT config at
// another member restores that state over the peer-read protocol instead
// of re-emulating — zero fast-forward legs on the second member, the
// checkpoint counted as a peer hit. The runs are sent as forwarded
// batches, so each computes where it is sent whoever owns its result key.
func TestShardedCheckpointReuseOverPeerReads(t *testing.T) {
	// One fast-forward leg: windows at skip 0 and 4000 of a 8000-inst run,
	// so exactly one checkpoint key exists and the test can pin the warm
	// run at that key's rendezvous owner.
	const (
		warmup = 1000
		detail = 1000
		period = 4000
		bench  = "gcc"
	)
	f := newShardedFabric(t, 2)
	ckptKey := engine.CheckpointKey(bench, period)
	owner := f.ownerIndex(ckptKey)
	if owner < 0 {
		t.Fatalf("no owner for %s", ckptKey)
	}
	peer := 1 - owner

	runBody := func(config string) string {
		return fmt.Sprintf(`{"cells":[{"config":%q,"bench":%q}],"insts":%d,"sample_warmup":%d,"sample_detail":%d,"sample_period":%d}`,
			config, bench, testInsts, warmup, detail, period)
	}
	forwarded := map[string]string{api.ForwardedHeader: "1"}

	// Warm run at the checkpoint's owner: it must emulate the leg once and
	// persist the warm state into its own store.
	if w := do(f.servers[owner], "POST", "/v1/sweep", runBody("ssq"), forwarded); w.Code != http.StatusOK {
		t.Fatalf("warm run HTTP %d: %s", w.Code, w.Body)
	}
	sm := f.servers[owner].engineStats()
	if sm.FastForwards != 1 || sm.CheckpointPuts != 1 {
		t.Fatalf("owner fast-forwards/puts = %d/%d, want 1/1: %+v",
			sm.FastForwards, sm.CheckpointPuts, sm)
	}

	// A different config at the other member: its result key is cold
	// everywhere, so the engine runs — but the fast-forward leg must be
	// served by the owner's checkpoint over GET /v1/store/{key}.
	before := cacheStats(t, f.servers[peer])
	if w := do(f.servers[peer], "POST", "/v1/sweep", runBody("nlq"), forwarded); w.Code != http.StatusOK {
		t.Fatalf("peer run HTTP %d: %s", w.Code, w.Body)
	}
	sm = f.servers[peer].engineStats()
	if sm.FastForwards != 0 || sm.CheckpointHits != 1 {
		t.Fatalf("peer member re-emulated: fast-forwards/hits = %d/%d, want 0/1: %+v",
			sm.FastForwards, sm.CheckpointHits, sm)
	}
	after := cacheStats(t, f.servers[peer])
	if d := after.PeerHits - before.PeerHits; d != 1 {
		t.Fatalf("peer member accounted %d peer hits for the checkpoint, want 1", d)
	}

	// The fetched checkpoint was promoted to the peer member's memory
	// tier: a third config's sampled run there stays entirely local.
	if w := do(f.servers[peer], "POST", "/v1/sweep", runBody("rle"), forwarded); w.Code != http.StatusOK {
		t.Fatalf("third run HTTP %d: %s", w.Code, w.Body)
	}
	sm = f.servers[peer].engineStats()
	if sm.FastForwards != 0 || sm.CheckpointHits != 2 {
		t.Fatalf("promoted checkpoint not reused locally: fast-forwards/hits = %d/%d, want 0/2",
			sm.FastForwards, sm.CheckpointHits)
	}
	if d := cacheStats(t, f.servers[peer]).PeerHits - after.PeerHits; d != 0 {
		t.Fatalf("third run went back to the peer (%d peer hits), want local memory serve", d)
	}
}
