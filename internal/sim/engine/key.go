package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync/atomic"
	"unsafe"

	"svwsim/internal/pipeline"
)

// Fingerprint is the memoization key for a job:
//
//	<bench>|<insts>|<hex SHA-256 of the canonical configuration encoding>
//
// The configuration is encoded without its display name and trace hook
// (neither affects simulation); see canon for the encoding. Two jobs with
// equal fingerprints produce identical Stats, so the engine runs only the
// first, and every store tier and the fabric's rendezvous placement key
// the result by it. The key is about 80 bytes whatever the configuration
// grows to. Computing it is two steps, ConfigDigest (one pass over the
// configuration's fields and one hash) and Key (string assembly); a
// caller that keys many cells of one machine — the interned machines of
// sim.MachineByName — digests the machine once and only assembles.
func Fingerprint(cfg Config, bench string, insts uint64) string {
	return Key(ConfigDigest(&cfg), bench, insts, pipeline.SampleSpec{})
}

// configDigests counts ConfigDigest calls in this process.
var configDigests atomic.Uint64

// ConfigDigests returns how many configuration digests this process has
// computed: the hashing work behind every key not assembled from a cached
// digest.
func ConfigDigests() uint64 { return configDigests.Load() }

// ConfigDigest is the hex SHA-256 of cfg's canonical encoding, the last
// field of every key Fingerprint and SampledFingerprint give cfg.
func ConfigDigest(cfg *Config) string {
	configDigests.Add(1)
	sum := configCanon.sum(cfg)
	return hex.EncodeToString(sum[:])
}

// Key assembles a memo key from a configuration digest (ConfigDigest):
//
//	<bench>|<insts>|<digest>[|sample:w:d:p]
//
// the suffix present only for an enabled spec. It hashes nothing, and
// Key(ConfigDigest(&cfg), bench, insts, spec) is byte-identical to
// SampledFingerprint(cfg, bench, insts, spec).
func Key(digest, bench string, insts uint64, spec pipeline.SampleSpec) string {
	var buf [192]byte
	b := append(buf[:0], bench...)
	b = append(b, '|')
	b = strconv.AppendUint(b, insts, 10)
	b = append(b, '|')
	b = append(b, digest...)
	if spec.Enabled() {
		b = append(b, "|sample:"...)
		b = strconv.AppendUint(b, spec.Warmup, 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, spec.Detail, 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, spec.Period, 10)
	}
	return string(b)
}

// configCanon encodes pipeline.Config for Fingerprint, leaving out the
// fields that do not affect simulation.
var configCanon = newCanon[Config]("Name", "TraceCommit")

// canon is the canonical encoding of struct type T: the digest of T's
// schema, then every leaf field's value in declaration order, nested
// structs flattened in place. Ints and uints print in decimal and floats
// as their IEEE-754 bits in hex, each ended by ','; bools print as 0 or 1;
// strings carry their length. Each value is self-delimiting, so with the
// schema fixed the encoding is one-to-one. The schema — every field's
// name and kind, nested structs included — is built and hashed once per
// type, so a renamed, added, removed, reordered or retyped field changes
// every encoding even where the values alone would still line up.
type canon[T any] struct {
	schema [sha256.Size]byte
	leaves []leaf
}

// leaf is one encoded field: its offset in T and its kind, both read from
// T by reflection once, so encoding a value does no reflection.
type leaf struct {
	off  uintptr
	kind reflect.Kind
}

// newCanon builds T's encoding, leaving out the named top-level fields.
// It panics on a field kind the encoding cannot represent (slice, map,
// pointer, func, …): a Config field of such a kind must be left out or
// given an encoding before any key is computed.
func newCanon[T any](skip ...string) *canon[T] {
	t := reflect.TypeFor[T]()
	left := map[string]bool{}
	for _, name := range skip {
		left[name] = true
	}
	schema, leaves := walkFields(nil, nil, t, 0, left)
	if len(left) > 0 {
		panic(fmt.Sprintf("engine: %s lacks a field to leave out: %v", t, left))
	}
	return &canon[T]{schema: sha256.Sum256(schema), leaves: leaves}
}

// walkFields appends struct type t's schema and leaves, t sitting at
// offset base in the encoded type. Fields named in skip are left out
// (and struck from it); only the top level passes a skip set.
func walkFields(schema []byte, leaves []leaf, t reflect.Type, base uintptr, skip map[string]bool) ([]byte, []leaf) {
	schema = append(schema, t.Name()...)
	schema = append(schema, '{')
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if skip[f.Name] {
			delete(skip, f.Name)
			continue
		}
		schema = append(schema, f.Name...)
		schema = append(schema, ':')
		switch k := f.Type.Kind(); k {
		case reflect.Struct:
			schema, leaves = walkFields(schema, leaves, f.Type, base+f.Offset, nil)
		case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			schema = append(schema, k.String()...)
			leaves = append(leaves, leaf{off: base + f.Offset, kind: k})
		default:
			panic(fmt.Sprintf("engine: cannot key field %s.%s of kind %s", t, f.Name, k))
		}
		schema = append(schema, ';')
	}
	return append(schema, '}'), leaves
}

// sum hashes the schema digest and v's encoding. Each leaf is read at the
// offset reflection gave for T, and v is a *T, so every read stays inside
// *v and has the leaf's own type.
func (c *canon[T]) sum(v *T) [sha256.Size]byte {
	var buf [512]byte
	b := append(buf[:0], c.schema[:]...)
	for _, l := range c.leaves {
		b = appendLeaf(b, unsafe.Add(unsafe.Pointer(v), l.off), l.kind)
	}
	return sha256.Sum256(b)
}

// appendLeaf appends the encoding of the value of kind k at p.
func appendLeaf(b []byte, p unsafe.Pointer, k reflect.Kind) []byte {
	switch k {
	case reflect.Bool:
		if *(*bool)(p) {
			return append(b, '1')
		}
		return append(b, '0')
	case reflect.String:
		s := *(*string)(p)
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		return append(b, s...)
	case reflect.Int:
		b = strconv.AppendInt(b, int64(*(*int)(p)), 10)
	case reflect.Int8:
		b = strconv.AppendInt(b, int64(*(*int8)(p)), 10)
	case reflect.Int16:
		b = strconv.AppendInt(b, int64(*(*int16)(p)), 10)
	case reflect.Int32:
		b = strconv.AppendInt(b, int64(*(*int32)(p)), 10)
	case reflect.Int64:
		b = strconv.AppendInt(b, *(*int64)(p), 10)
	case reflect.Uint:
		b = strconv.AppendUint(b, uint64(*(*uint)(p)), 10)
	case reflect.Uint8:
		b = strconv.AppendUint(b, uint64(*(*uint8)(p)), 10)
	case reflect.Uint16:
		b = strconv.AppendUint(b, uint64(*(*uint16)(p)), 10)
	case reflect.Uint32:
		b = strconv.AppendUint(b, uint64(*(*uint32)(p)), 10)
	case reflect.Uint64:
		b = strconv.AppendUint(b, *(*uint64)(p), 10)
	case reflect.Uintptr:
		b = strconv.AppendUint(b, uint64(*(*uintptr)(p)), 10)
	case reflect.Float32:
		b = strconv.AppendUint(b, uint64(math.Float32bits(*(*float32)(p))), 16)
	case reflect.Float64:
		b = strconv.AppendUint(b, math.Float64bits(*(*float64)(p)), 16)
	}
	return append(b, ',')
}
