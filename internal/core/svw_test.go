package core

import (
	"testing"
	"testing/quick"
)

func TestMinSSN(t *testing.T) {
	if MinSSN(3, 5) != 3 || MinSSN(5, 3) != 3 || MinSSN(4, 4) != 4 {
		t.Error("MinSSN broken")
	}
}

func TestDispatchAndForwardSVW(t *testing.T) {
	if DispatchSVW(42) != 42 {
		t.Error("dispatch SVW is SSNretire")
	}
	// Forwarding raises the SVW to the forwarding store's SSN...
	if ForwardSVW(10, 20) != 20 {
		t.Error("forward should raise")
	}
	// ...but never lowers it (e.g. a second, older forwarding event).
	if ForwardSVW(30, 20) != 30 {
		t.Error("forward must not lower")
	}
}

func TestForwardSVWMonotonicQuick(t *testing.T) {
	f := func(cur, st uint64) bool {
		out := ForwardSVW(SSN(cur), SSN(st))
		return out >= SSN(cur) && out >= MinSSN(SSN(cur), SSN(st))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEliminatedSVW(t *testing.T) {
	// §3.5: vulnerable to the larger window under either mechanism.
	if EliminatedSVW(10, 20) != 10 {
		t.Error("older IT window wins")
	}
	if EliminatedSVW(20, 10) != 10 {
		t.Error("older dispatch window wins")
	}
}

func TestInvalidationSSN(t *testing.T) {
	// One more than the youngest in-flight store: every in-flight load
	// tests positive against it.
	if InvalidationSSN(100) != 101 {
		t.Error("invalidation SSN")
	}
}

func TestWrapControlInterval(t *testing.T) {
	w := WrapControl{Bits: 16}
	if w.Interval() != 1<<16 {
		t.Errorf("interval = %d", w.Interval())
	}
	if (&WrapControl{Bits: 0}).Interval() != 0 {
		t.Error("infinite width should never drain")
	}
}

func TestWrapControlDrainPoints(t *testing.T) {
	w := WrapControl{Bits: 8}
	if w.ShouldDrain(0) {
		t.Error("ssn 1 is not a wrap point")
	}
	if !w.ShouldDrain(255) {
		t.Error("allocating ssn 256 (== 0 mod 2^8) must drain")
	}
	if w.ShouldDrain(256) {
		t.Error("ssn 257 is not a wrap point")
	}
	if !w.ShouldDrain(511) {
		t.Error("each wrap multiple must drain")
	}
	inf := WrapControl{Bits: 0}
	for _, p := range []SSN{0, 255, 65535, 1 << 30} {
		if inf.ShouldDrain(p) {
			t.Errorf("infinite SSNs must never drain (at %d)", p)
		}
	}
}

func TestWrapDrainEveryIntervalQuick(t *testing.T) {
	// Property: over any contiguous SSN range of length 2^bits, exactly
	// one drain point occurs.
	f := func(start uint32, bitsSel uint8) bool {
		bits := 6 + int(bitsSel%8) // 6..13
		w := WrapControl{Bits: bits}
		n := 0
		for i := uint64(0); i < 1<<uint(bits); i++ {
			if w.ShouldDrain(SSN(uint64(start) + i)) {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSPCT(t *testing.T) {
	s := NewSPCT(DefaultSPCTConfig())
	s.Update(0x1000, 8, 0xAAA)
	if s.Lookup(0x1000) != 0xAAA {
		t.Error("lookup after update")
	}
	if s.Lookup(0x1008) != 0 {
		t.Error("neighboring granule polluted")
	}
	// Later store to the same address replaces.
	s.Update(0x1000, 8, 0xBBB)
	if s.Lookup(0x1000) != 0xBBB {
		t.Error("update should replace")
	}
	// Aliasing at 512 granules (same index as 0x1000).
	if s.Lookup(0x1000+512*8) != 0xBBB {
		t.Error("SPCT is tagless; aliases should collide")
	}
	// Spanning store updates all granules (0x2004 spans indexes 0 and 1;
	// index 0 aliases 0x1000's).
	s.Update(0x2004, 8, 0xCCC)
	if s.Lookup(0x2000) != 0xCCC || s.Lookup(0x2008) != 0xCCC {
		t.Error("spanning SPCT update")
	}
	s.Reset()
	if s.Lookup(0x1000) != 0 {
		t.Error("clear")
	}
}
