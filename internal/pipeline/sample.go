package pipeline

// Sampled simulation: alternate cheap functional fast-forward with short
// detailed windows, SMARTS-style. The functional emulator is the oracle the
// timing core replays anyway, so fast-forwarding through it is semantically
// identical to detailed execution — only the timing structures (and their
// cost) are skipped. Scaling the measured window counters back up to the
// full instruction budget happens in the engine (Stats.Scale); this file
// holds the spec and the core-level primitives.

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"svwsim/internal/emu"
	"svwsim/internal/prog"
)

// SampleSpec configures detailed-window sampling. Each period of Period
// committed instructions is represented by one detailed window: Warmup
// commits to re-warm the timing structures (counters reset when it ends,
// exactly like Config.WarmupInsts) followed by Detail measured commits; the
// remaining Period-Warmup-Detail instructions are fast-forwarded
// functionally. The zero value means exact (unsampled) simulation.
type SampleSpec struct {
	Warmup uint64 // detailed commits per window before counters start
	Detail uint64 // measured commits per window
	Period uint64 // committed instructions each window represents
}

// Enabled reports whether the spec asks for sampling at all.
func (s SampleSpec) Enabled() bool { return s != (SampleSpec{}) }

// Validate checks an enabled spec for coherence. The zero value is valid
// (exact mode); a partially filled spec is not.
func (s SampleSpec) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if s.Detail == 0 {
		return fmt.Errorf("sample: detail window must be > 0")
	}
	if s.Period < s.Warmup+s.Detail {
		return fmt.Errorf("sample: period %d shorter than warmup %d + detail %d",
			s.Period, s.Warmup, s.Detail)
	}
	return nil
}

// String renders the spec in the canonical w:d:p spelling the memo-key
// suffix and the CLI flags use.
func (s SampleSpec) String() string {
	return fmt.Sprintf("%d:%d:%d", s.Warmup, s.Detail, s.Period)
}

// ParseSampleSpec parses the canonical w:d:p spelling (String's inverse).
// The parsed spec is syntactically checked only; callers that require a
// coherent spec still Validate it.
func ParseSampleSpec(v string) (SampleSpec, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return SampleSpec{}, fmt.Errorf("sample: want warmup:detail:period, got %q", v)
	}
	var nums [3]uint64
	for i, p := range parts {
		n, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return SampleSpec{}, fmt.Errorf("sample: bad count %q in %q", p, v)
		}
		nums[i] = n
	}
	return SampleSpec{Warmup: nums[0], Detail: nums[1], Period: nums[2]}, nil
}

// ResetWindow is Reset for the second and later windows of one sampled
// run: the run starts from a previously captured architectural snapshot
// instead of the program's entry point (the emulator adopts the snapshot
// and the committed memory image is re-seeded from its memory), and the
// trained microarchitectural substrates — cache tags, branch predictor,
// store-set SSIT, SPCT, SSQ steering — carry over from the previous window
// instead of starting cold, and the cycle counter keeps counting
// (cache MSHR and bus occupancy hold absolute cycles; a monotone clock
// keeps them coherent). A window measured over stale-but-trained state
// tracks the full run far more closely than a cold one: the substrates hold
// history a short per-window warm-up cannot re-create. In-flight state does
// not carry — the store-set LFST (which names live store sequence numbers)
// is flushed, and the SSN-epoch-tagged SSBF and the
// physical-register-referencing IT are cleared like every other reset.
// Substrate event counters reset so the window measures its own rates over
// the warm state. cfg and p must describe the program the snapshot was
// taken from (the decode table still comes from p).
//
// On a fresh Core (no previous window) every substrate is built fresh.
func (c *Core) ResetWindow(cfg Config, p *prog.Program, st emu.ArchState) {
	em := emu.New(nil, 0)
	em.Restore(st)
	c.rebind(cfg, p, em, st.Mem.Clone(), true)
}

// scaleCounter computes v*num/den in 128-bit intermediate precision with
// round-half-up, so window counters scale to full-run estimates without
// overflow or platform-dependent float rounding.
func scaleCounter(v, num, den uint64) uint64 {
	hi, lo := bits.Mul64(v, num)
	lo, carry := bits.Add64(lo, den/2, 0)
	hi += carry
	if hi >= den {
		return ^uint64(0) // saturate; unreachable for sane scale factors
	}
	q, _ := bits.Div64(hi, lo, den)
	return q
}
