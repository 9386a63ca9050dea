// Package bpred implements the paper's front-end predictors: an 8K-entry
// hybrid (bimodal + gshare with a chooser) direction predictor, a 2K-entry
// 2-way set-associative BTB, and a return address stack.
//
// Because the timing core has no wrong-path fetch, the predictor is consulted
// at fetch with the branch's actual outcome available; its verdict decides
// whether fetch takes a mispredict bubble, and tables train immediately. This
// is the standard trace-driven formulation: accuracy matches an
// update-at-commit predictor to within noise because no wrong-path history
// pollution exists to repair.
package bpred

import "svwsim/internal/isa"

// Config sizes the predictor.
type Config struct {
	DirEntries  int // per component (bimodal, gshare, chooser)
	HistoryBits int
	BTBSets     int
	BTBWays     int
	RASDepth    int
}

// DefaultConfig returns the paper's front end: 8K-entry hybrid predictor and
// a 2K-entry 2-way BTB.
func DefaultConfig() Config {
	return Config{DirEntries: 8192, HistoryBits: 13, BTBSets: 1024, BTBWays: 2, RASDepth: 16}
}

// Predictor is the combined direction/target predictor.
type Predictor struct {
	cfg     Config
	bimodal []uint8
	gshare  []uint8
	chooser []uint8 // high = trust gshare
	history uint64

	btb      []btbEntry // BTBSets*BTBWays, set-major
	btbClock uint64

	ras    []uint64
	rasTop int

	// Stats
	Branches, DirMispredicts, TargetMispredicts, BTBMisses uint64
}

type btbEntry struct {
	tag, target, lru uint64
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, cfg.DirEntries),
		gshare:  make([]uint8, cfg.DirEntries),
		chooser: make([]uint8, cfg.DirEntries),
		ras:     make([]uint64, cfg.RASDepth),
		btb:     make([]btbEntry, cfg.BTBSets*cfg.BTBWays),
	}
	p.Reset()
	return p
}

// Config returns the predictor's geometry.
func (p *Predictor) Config() Config { return p.cfg }

// Reset returns every table to its untrained state in place: the result is
// exactly the predictor New builds from the same configuration.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not-taken
		p.gshare[i] = 1
		p.chooser[i] = 1
	}
	p.history = 0
	clear(p.btb)
	p.btbClock = 0
	clear(p.ras)
	p.rasTop = 0
	p.Branches, p.DirMispredicts, p.TargetMispredicts, p.BTBMisses = 0, 0, 0, 0
}

// Outcome reports how fetch fared on one control instruction.
type Outcome struct {
	DirMispredict    bool // direction wrong: full resolve-at-execute penalty
	TargetMispredict bool // direction right, target wrong (indirect): full penalty
	BTBMiss          bool // taken and target unknown at fetch: decode bubble
}

func (p *Predictor) dirIndex(pc uint64) int {
	return int(pc>>2) & (p.cfg.DirEntries - 1)
}

func (p *Predictor) gshareIndex(pc uint64) int {
	return int((pc>>2)^p.history) & (p.cfg.DirEntries - 1)
}

// Lookup processes one branch at fetch. inst is the decoded instruction,
// taken/target the actual outcome from the oracle stream. Tables train
// in the same call.
func (p *Predictor) Lookup(pc uint64, inst isa.Inst, taken bool, target uint64) Outcome {
	p.Branches++
	var out Outcome
	switch {
	case inst.IsCondBranch():
		bi, gi := p.dirIndex(pc), p.gshareIndex(pc)
		predBimodal := p.bimodal[bi] >= 2
		predGshare := p.gshare[gi] >= 2
		pred := predBimodal
		useGshare := p.chooser[bi] >= 2
		if useGshare {
			pred = predGshare
		}
		if pred != taken {
			out.DirMispredict = true
			p.DirMispredicts++
		} else if taken && !p.btbLookup(pc, target) {
			out.BTBMiss = true
			p.BTBMisses++
		}
		// Train.
		p.bimodal[bi] = train(p.bimodal[bi], taken)
		p.gshare[gi] = train(p.gshare[gi], taken)
		if predBimodal != predGshare {
			p.chooser[bi] = train(p.chooser[bi], predGshare == taken)
		}
		p.history = p.history<<1 | b2u(taken)
		if taken {
			p.btbInsert(pc, target)
		}
	case inst.IsUncondDirect():
		// Target computable at decode; BTB miss costs only a decode bubble.
		if !p.btbLookup(pc, target) {
			out.BTBMiss = true
			p.BTBMisses++
		}
		p.btbInsert(pc, target)
		if inst.IsCall() {
			p.push(pc + 4)
		}
	case inst.IsIndirect():
		var predTarget uint64
		var havePred bool
		if inst.IsReturn() {
			predTarget, havePred = p.pop()
		} else {
			predTarget, havePred = p.btbTargetFor(pc)
			if inst.IsCall() {
				p.push(pc + 4)
			}
		}
		if !havePred {
			out.BTBMiss = true
			p.BTBMisses++
		} else if predTarget != target {
			out.TargetMispredict = true
			p.TargetMispredicts++
		}
		if !inst.IsReturn() {
			p.btbInsert(pc, target)
		}
	}
	return out
}

func train(ctr uint8, up bool) uint8 {
	if up {
		if ctr < 3 {
			return ctr + 1
		}
		return 3
	}
	if ctr > 0 {
		return ctr - 1
	}
	return 0
}

// btbSet returns the ways of pc's BTB set.
func (p *Predictor) btbSet(pc uint64) []btbEntry {
	s := (int(pc>>2) & (p.cfg.BTBSets - 1)) * p.cfg.BTBWays
	return p.btb[s : s+p.cfg.BTBWays]
}

func (p *Predictor) btbLookup(pc, target uint64) bool {
	t, ok := p.btbTargetFor(pc)
	return ok && t == target
}

func (p *Predictor) btbTargetFor(pc uint64) (uint64, bool) {
	ways := p.btbSet(pc)
	for w := range ways {
		if ways[w].tag == pc && ways[w].target != 0 {
			p.btbClock++
			ways[w].lru = p.btbClock
			return ways[w].target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	ways := p.btbSet(pc)
	victim, oldest := 0, ^uint64(0)
	for w := range ways {
		if ways[w].tag == pc {
			victim = w
			break
		}
		if ways[w].lru < oldest {
			victim, oldest = w, ways[w].lru
		}
	}
	p.btbClock++
	ways[victim] = btbEntry{tag: pc, target: target, lru: p.btbClock}
}

func (p *Predictor) push(ret uint64) {
	p.ras[p.rasTop%len(p.ras)] = ret
	p.rasTop++
}

func (p *Predictor) pop() (uint64, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// ResetStats zeroes the outcome counters without touching trained state, so
// a sampled-simulation window can measure its own accuracy over a
// carried-over (warm) predictor.
func (p *Predictor) ResetStats() {
	p.Branches, p.DirMispredicts, p.TargetMispredicts, p.BTBMisses = 0, 0, 0, 0
}

// Accuracy returns the fraction of control instructions fetched without a
// full mispredict.
func (p *Predictor) Accuracy() float64 {
	if p.Branches == 0 {
		return 1
	}
	bad := p.DirMispredicts + p.TargetMispredicts
	return 1 - float64(bad)/float64(p.Branches)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
