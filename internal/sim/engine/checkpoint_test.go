package engine

import (
	"strings"
	"testing"

	"svwsim/internal/emu"
	"svwsim/internal/workload"
)

func flip(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0x40
	return out
}

func TestCheckpointRoundTrip(t *testing.T) {
	p := workload.Cached("gcc")
	const skip = 25_000

	m := emu.New(p.NewImage(), p.Entry)
	m.SetDecodeTable(p.Base, p.Decoded())
	if _, err := m.FastForward(skip); err != nil {
		t.Fatal(err)
	}
	st := m.State()

	raw := encodeCheckpoint(st, p)
	// Deterministic: identical state encodes to identical bytes.
	if raw2 := encodeCheckpoint(st, p); string(raw) != string(raw2) {
		t.Fatal("checkpoint encoding is not deterministic")
	}

	got, err := decodeCheckpoint(raw, p, skip)
	if err != nil {
		t.Fatal(err)
	}
	if got.PC != st.PC || got.Regs != st.Regs || got.Halted != st.Halted || got.Skipped != st.Skipped {
		t.Fatalf("decoded scalar state differs:\ngot  %+v\nwant %+v", got, st)
	}
	if addr, differ := got.Mem.Diff(st.Mem); differ {
		t.Fatalf("decoded memory differs at %#x", addr)
	}

	// Integrity failures every caller treats as a miss.
	cases := []struct {
		name string
		raw  []byte
		skip uint64
		want string
	}{
		{"truncated", raw[:20], skip, "truncated"},
		{"bad magic", append([]byte("XXXX"), raw[4:]...), skip, "magic"},
		{"flipped byte", flip(raw, len(raw)/2), skip, "checksum"},
		{"wrong skip", raw, skip + 1, "skip"},
	}
	for _, c := range cases {
		if _, err := decodeCheckpoint(c.raw, p, c.skip); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestCheckpointKeyDisjoint: checkpoint keys live in their own namespace —
// an engine memo key starts with its benchmark's name, and no benchmark is
// named so that its keys start with "ckpt|".
func TestCheckpointKeyDisjoint(t *testing.T) {
	key := CheckpointKey("gcc", 40_000)
	if !strings.HasPrefix(key, CheckpointKeyPrefix) {
		t.Fatalf("checkpoint key %q lacks prefix", key)
	}
	for _, bench := range workload.Names() {
		if memo := Fingerprint(Config{}, bench, 40_000); strings.HasPrefix(memo, CheckpointKeyPrefix) {
			t.Fatalf("memo key %q collides with checkpoint namespace", memo)
		}
	}
}
