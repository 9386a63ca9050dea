package engine

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"svwsim/internal/pipeline"
)

// leafPaths lists the field index path of every leaf (non-struct) field
// of t, nested structs included, with its dotted name.
func leafPaths(t reflect.Type, prefix []int, name string) (paths [][]int, names []string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		p := append(append([]int(nil), prefix...), i)
		n := strings.TrimPrefix(name+"."+f.Name, ".")
		if f.Type.Kind() == reflect.Struct {
			ps, ns := leafPaths(f.Type, p, n)
			paths, names = append(paths, ps...), append(names, ns...)
			continue
		}
		paths, names = append(paths, p), append(names, n)
	}
	return paths, names
}

// perturb changes leaf v to a different value of its kind.
func perturb(t *testing.T, v reflect.Value, name string) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("%s: no perturbation for kind %s", name, v.Kind())
	}
}

// Every leaf of pipeline.Config, however deeply nested, reaches the key:
// changing any one of them gives a key no other single change gives. The
// display name and the trace hook are the only fields left out.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := pipeline.Wide8Config()
	baseKey := Fingerprint(base, "gcc", 10_000)
	paths, names := leafPaths(reflect.TypeFor[Config](), nil, "")
	nested := 0
	seen := map[string]string{baseKey: "the unchanged config"}
	for i, p := range paths {
		cfg := base
		perturb(t, reflect.ValueOf(&cfg).Elem().FieldByIndex(p), names[i])
		key := Fingerprint(cfg, "gcc", 10_000)
		if names[i] == "Name" || names[i] == "TraceCommit" {
			if key != baseKey {
				t.Errorf("changing %s changed the key", names[i])
			}
			continue
		}
		if len(p) > 1 {
			nested++
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("changing %s gives the same key as %s", names[i], prev)
		}
		seen[key] = names[i]
	}
	// The walk must actually reach the substrate configs (cache levels,
	// buses, predictor, SSBF, …), not just the top level.
	if nested < 20 {
		t.Fatalf("only %d nested leaves covered; the leaf walk is not recursing", nested)
	}
}

// The schema is part of the encoding: two struct types with the same name
// and equal values but different field names never encode alike.
func TestCanonSeesFieldNames(t *testing.T) {
	var a, b [32]byte
	{
		type cell struct{ Width int }
		a = newCanon[cell]().sum(&cell{8})
	}
	{
		type cell struct{ Depth int }
		b = newCanon[cell]().sum(&cell{8})
	}
	if a == b {
		t.Fatal("struct types differing only in field names encode alike")
	}
}

// TestFingerprintGolden pins the key form and the encoding: a change to
// either re-keys every stored result, so it must be deliberate.
func TestFingerprintGolden(t *testing.T) {
	const (
		exact   = "gcc|10000|1ebd853f4bdda330a630f9608c77c8a6b2c521e004fac6b60d9ffb08f759b885"
		sampled = exact + "|sample:1000:1000:5000"
	)
	cfg := pipeline.Wide8Config()
	if got := Fingerprint(cfg, "gcc", 10_000); got != exact {
		t.Errorf("Fingerprint(Wide8Config, gcc, 10000) = %q, want %q", got, exact)
	}
	spec := pipeline.SampleSpec{Warmup: 1000, Detail: 1000, Period: 5000}
	if got := SampledFingerprint(cfg, "gcc", 10_000, spec); got != sampled {
		t.Errorf("SampledFingerprint(Wide8Config, gcc, 10000, %v) = %q, want %q", spec, got, sampled)
	}
	if !regexp.MustCompile(`^gcc\|10000\|[0-9a-f]{64}$`).MatchString(exact) {
		t.Errorf("golden key %q is not <bench>|<insts>|<sha256 hex>", exact)
	}
}

// Keying is on every hop of a served cell, so it must stay cheap.
// Key assembles, from one digest, the keys SampledFingerprint hashes for:
// exact, sampled, any bench and budget, each digest computed counted once.
func TestKeyAssemblesFingerprints(t *testing.T) {
	cfg := pipeline.Wide8Config()
	before := ConfigDigests()
	digest := ConfigDigest(&cfg)
	if d := ConfigDigests() - before; d != 1 {
		t.Fatalf("one ConfigDigest counted %d digests", d)
	}
	for _, spec := range []pipeline.SampleSpec{{}, {Warmup: 1000, Detail: 1000, Period: 5000}, {Warmup: 1, Detail: 2, Period: 1 << 40}} {
		for _, bench := range []string{"gcc", "twolf", ""} {
			for _, insts := range []uint64{0, 10_000, ^uint64(0)} {
				want := Fingerprint(cfg, bench, insts)
				if spec.Enabled() {
					want += "|sample:" + spec.String()
				}
				if got := Key(digest, bench, insts, spec); got != want {
					t.Errorf("Key(%s, %d, %v) = %q, want %q", bench, insts, spec, got, want)
				}
				if got := SampledFingerprint(cfg, bench, insts, spec); got != want {
					t.Errorf("SampledFingerprint(%s, %d, %v) = %q, want %q", bench, insts, spec, got, want)
				}
			}
		}
	}
}

func TestFingerprintAllocs(t *testing.T) {
	cfg := pipeline.Wide8Config()
	if n := testing.AllocsPerRun(100, func() { Fingerprint(cfg, "gcc", 10_000) }); n > 4 {
		t.Errorf("Fingerprint allocates %v times per key, want at most 4", n)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	cfg := pipeline.Wide8Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fingerprint(cfg, "gcc", 10_000)
	}
}
