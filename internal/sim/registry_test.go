package sim

import (
	"strings"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
)

// buildByName resolves a name the way ConfigByName did before machines
// were interned — alias, then display name, then registry name, then study
// rung — building every configuration from scratch. The interned table
// must agree with it on every name it holds.
func buildByName(name string) (pipeline.Config, bool) {
	n := normalize(name)
	if canon, ok := configAliases[n]; ok {
		n = canon
	} else {
		for _, e := range configRegistry {
			if strings.ToLower(e.build().Name) == n {
				n = e.name
			}
		}
	}
	for _, e := range configRegistry {
		if e.name == n {
			return e.build(), true
		}
	}
	return studyRung(n)
}

// TestInternedTableMatchesBuilds: every name the table files a machine
// under resolves, through a fresh build, to a machine with the same
// display name and the same key digest — the digest the table cached.
func TestInternedTableMatchesBuilds(t *testing.T) {
	table := machines()
	// 15 registry names, "base", the display names in two spellings and
	// 12 study rungs: 44 names for 27 machines.
	if n := len(table); n < 40 || n > 100 {
		t.Fatalf("interned table holds %d names", n)
	}
	for name, m := range table {
		want, ok := buildByName(name)
		if !ok {
			t.Errorf("%q is interned but does not build", name)
			continue
		}
		if m.Name() != want.Name {
			t.Errorf("%q: interned as %q, builds as %q", name, m.Name(), want.Name)
		}
		if d := engine.ConfigDigest(&want); m.digest != d {
			t.Errorf("%q: interned digest %s, built machine digests as %s", name, m.digest, d)
		}
	}
}

// TestMachineTableIsBounded: a warm lookup hashes nothing; a name outside
// the table is digested afresh on every lookup and never added to it.
func TestMachineTableIsBounded(t *testing.T) {
	size := len(machines())
	before := engine.ConfigDigests()
	for _, name := range []string{"ssq+svw", " SSQ+SVW ", "ssq+SVW+UPD", "base", "ssq+svw/ssn16", "ssq+svw/Bloom", "ssq+svw/atomic"} {
		if _, ok := MachineByName(name); !ok {
			t.Fatalf("%q does not resolve", name)
		}
	}
	if d := engine.ConfigDigests() - before; d != 0 {
		t.Fatalf("interned lookups computed %d digests, want 0", d)
	}
	odd := []string{"ssq+svw/ssn7", "ssq+svw/ssn08", "ssq+svw/ssn7"}
	var built []*Machine
	for _, name := range odd {
		m, ok := MachineByName(name)
		if !ok {
			t.Fatalf("%q does not resolve", name)
		}
		built = append(built, m)
	}
	if d := engine.ConfigDigests() - before; d != uint64(len(odd)) {
		t.Errorf("%d uninterned lookups computed %d digests", len(odd), d)
	}
	for i, m := range built {
		if m.Key("gcc", 1000, pipeline.SampleSpec{}) != engine.Fingerprint(m.Config(), "gcc", 1000) {
			t.Errorf("%q: key does not match its configuration", odd[i])
		}
	}
	if n := len(machines()); n != size {
		t.Fatalf("table grew from %d to %d names", size, n)
	}
}
