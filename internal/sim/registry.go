package sim

import (
	"strconv"
	"strings"
	"sync"

	"svwsim/internal/pipeline"
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
// whitespace ignored; "base" is an alias for "base-nlq") to a freshly built
// machine configuration. Besides the registry names it accepts every name
// a study gives a machine: a registry machine's display name (its
// Config.Name, as results print it, e.g. "ssq+SVW+UPD") and the rungs the
// §3.6 and Fig. 8 studies derive from ssq+svw ("ssq+svw/ssn16",
// "ssq+svw/bloom", "ssq+svw/atomic"). So every job of svwd's studies
// rebuilds from its own Config.Name, which is how a fabric member sends a
// study cell to its owner. The second result reports whether the name is
// known.
func ConfigByName(name string) (pipeline.Config, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := configAliases[n]; ok {
		n = canon
	} else if canon, ok := displayNames()[n]; ok {
		n = canon
	}
	for _, e := range configRegistry {
		if e.name == n {
			return e.build(), true
		}
	}
	return studyRung(n)
}

// displayNames maps each registry machine's lower-cased display name to
// its registry name.
var displayNames = sync.OnceValue(func() map[string]string {
	m := make(map[string]string, len(configRegistry))
	for _, e := range configRegistry {
		m[strings.ToLower(e.build().Name)] = e.name
	}
	return m
})

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
