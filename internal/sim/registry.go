package sim

import (
	"strconv"
	"strings"
	"sync"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
)

// The configuration registry: one canonical name per machine configuration
// the CLIs and the HTTP API accept. cmd/svwsim, cmd/svwtrace and
// internal/server all resolve names through this table, so the set of
// reachable machines cannot drift between entry points.
//
// Names follow the figures' ladders: each study contributes its baseline
// followed by its rungs, e.g. base-ssq, ssq, ssq+svw-upd, ssq+svw,
// ssq+perfect.
var configRegistry = []struct {
	name  string
	build func() pipeline.Config
}{
	{"base-nlq", BaselineNLQ},
	{"nlq", func() pipeline.Config { return NLQ(SVWOff) }},
	{"nlq+svw-upd", func() pipeline.Config { return NLQ(SVWNoUpd) }},
	{"nlq+svw", func() pipeline.Config { return NLQ(SVWUpd) }},
	{"nlq+perfect", func() pipeline.Config { return NLQ(Perfect) }},
	{"base-ssq", BaselineSSQ},
	{"ssq", func() pipeline.Config { return SSQ(SVWOff) }},
	{"ssq+svw-upd", func() pipeline.Config { return SSQ(SVWNoUpd) }},
	{"ssq+svw", func() pipeline.Config { return SSQ(SVWUpd) }},
	{"ssq+perfect", func() pipeline.Config { return SSQ(Perfect) }},
	{"base-rle", BaselineRLE},
	{"rle", func() pipeline.Config { return RLE(RLERaw) }},
	{"rle+svw", func() pipeline.Config { return RLE(RLESVW) }},
	{"rle+svw-squ", func() pipeline.Config { return RLE(RLESVWNoSQ) }},
	{"rle+perfect", func() pipeline.Config { return RLE(RLEPerfect) }},
}

// configAliases maps accepted shorthands onto canonical registry names.
var configAliases = map[string]string{
	"base": "base-nlq",
}

// ConfigNames returns every canonical configuration name in ladder order
// (each study's baseline followed by its rungs). The slice is freshly
// allocated; callers may modify it.
func ConfigNames() []string {
	names := make([]string, len(configRegistry))
	for i, e := range configRegistry {
		names[i] = e.name
	}
	return names
}

// ConfigByName resolves a configuration name (case-insensitive, surrounding
// whitespace ignored; "base" is an alias for "base-nlq") to a machine
// configuration. Besides the registry names it accepts every name a study
// gives a machine: a registry machine's display name (its Config.Name, as
// results print it, e.g. "ssq+SVW+UPD") and the rungs the §3.6 and Fig. 8
// studies derive from ssq+svw ("ssq+svw/ssn16", "ssq+svw/bloom",
// "ssq+svw/atomic"). So every job of svwd's studies rebuilds from its own
// Config.Name, which is how a fabric member sends a study cell to its
// owner. The second result reports whether the name is known.
//
// A name the interned table holds (MachineByName) is a lookup, not a
// build; the configuration returned is always the caller's own copy, so
// changing it (svwtrace sets its run limits and trace hook) never reaches
// a later lookup.
func ConfigByName(name string) (pipeline.Config, bool) {
	if m, ok := interned(name); ok {
		return m.cfg, true
	}
	return studyRung(normalize(name))
}

// Machine is a resolved machine configuration together with its key
// digest (engine.ConfigDigest), so its cells' memo keys assemble without
// hashing. The interned machines are shared and never change; Config
// hands out copies.
type Machine struct {
	cfg    pipeline.Config
	digest string
}

// Config returns a copy of the machine's configuration.
func (m *Machine) Config() pipeline.Config { return m.cfg }

// Name is the machine's display name, its Config.Name.
func (m *Machine) Name() string { return m.cfg.Name }

// Key is the memo key of the machine running insts instructions of bench
// under spec: byte-identical to engine.SampledFingerprint(m.Config(),
// bench, insts, spec), assembled from the cached digest.
func (m *Machine) Key(bench string, insts uint64, spec pipeline.SampleSpec) string {
	return engine.Key(m.digest, bench, insts, spec)
}

// MachineByName resolves name exactly as ConfigByName does. Every name
// the registry, its display names and the studies' standard rungs give a
// machine — in any letter case, with surrounding whitespace — is a lookup
// in the interned table, whose machines are resolved and digested once
// per process. Any other name ConfigByName accepts (an SSN width no study
// uses, an odd spelling such as "ssq+svw/ssn08") is built and digested
// afresh on every call: the table never changes once built, so no client
// can grow it.
func MachineByName(name string) (*Machine, bool) {
	if m, ok := interned(name); ok {
		return m, true
	}
	cfg, ok := studyRung(normalize(name))
	if !ok {
		return nil, false
	}
	return &Machine{cfg: cfg, digest: engine.ConfigDigest(&cfg)}, true
}

// normalize is the spelling names are resolved in.
func normalize(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// interned looks name up in the table: as given, then normalized.
func interned(name string) (*Machine, bool) {
	t := machines()
	if m, ok := t[name]; ok {
		return m, true
	}
	m, ok := t[normalize(name)]
	return m, ok
}

// machines is the interned table, built on first use and read-only after:
// one Machine per registry machine and standard study rung, filed under
// its registry name and its display name, as spelled and lower-cased, and
// under the aliases. No two machines share a name
// (TestInternedTableMatchesBuilds checks every entry against a build).
var machines = sync.OnceValue(func() map[string]*Machine {
	t := make(map[string]*Machine)
	digest := func(cfg pipeline.Config) *Machine {
		return &Machine{cfg: cfg, digest: engine.ConfigDigest(&cfg)}
	}
	file := func(m *Machine) { t[m.cfg.Name], t[strings.ToLower(m.cfg.Name)] = m, m }
	for _, e := range configRegistry {
		m := digest(e.build())
		t[e.name] = m
		file(m)
	}
	for alias, canon := range configAliases {
		t[alias] = t[canon]
	}
	for _, bits := range SSNWidths() {
		file(digest(ssnRung(bits)))
	}
	for _, v := range Fig8Variants() {
		file(digest(fig8Rung(v)))
	}
	file(digest(atomicRung()))
	return t
})

// SSNWidths returns the SSN widths of the §3.6 wrap-drain study in the
// order it reports them (0 = infinite): the study's default, and the
// widths whose rungs the interned table holds. Freshly allocated.
func SSNWidths() []int { return []int{8, 10, 12, 16, 0} }

// studyRung rebuilds a study rung from its lower-cased name.
func studyRung(name string) (pipeline.Config, bool) {
	rung, ok := strings.CutPrefix(name, "ssq+svw/")
	switch {
	case !ok:
		return pipeline.Config{}, false
	case rung == "atomic":
		return atomicRung(), true
	case strings.HasPrefix(rung, "ssn"):
		bits, err := strconv.Atoi(rung[len("ssn"):])
		return ssnRung(bits), err == nil && bits >= 0
	}
	for _, v := range Fig8Variants() {
		if strings.ToLower(v.Label) == rung {
			return fig8Rung(v), true
		}
	}
	return pipeline.Config{}, false
}
