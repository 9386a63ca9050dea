package pipeline

import (
	"reflect"
	"testing"

	"svwsim/internal/bpred"
	"svwsim/internal/cache"
	"svwsim/internal/core"
	"svwsim/internal/emu"
	"svwsim/internal/lsq"
	"svwsim/internal/rle"
	"svwsim/internal/storesets"
	"svwsim/internal/workload"
)

// TestResetLeavesSubstratesAsBuilt pins the in-place clears below Reset:
// after a run has trained every substrate, a Reset to the same geometry
// leaves each one deeply equal to a freshly built one — including state no
// statistic shows, such as store-set allocation order or SPCT entries.
func TestResetLeavesSubstratesAsBuilt(t *testing.T) {
	cfgs := allConfigs()
	last := cfgs[len(cfgs)-1] // rle+ssq+svw: every substrate at once
	infinite := last
	infinite.Name = "rle+ssq+svw/infinite-ssbf"
	infinite.SVW.SSBF = core.SSBFConfig{Entries: 0, GranuleBytes: 4}
	for _, cfg := range []Config{last, infinite} {
		p := workload.Cached("perl.s")
		c := runCore(t, cfg, p)
		if c.steer.LoadTags == 0 || c.ss.Trainings == 0 || c.it.Inserts == 0 {
			t.Fatalf("%s: the run trained too little to test the clears", cfg.Name)
		}
		c.Reset(cfg, p)
		for _, s := range []struct {
			name      string
			got, want any
		}{
			{"hierarchy", c.hier, cache.NewHierarchy(cfg.Mem)},
			{"predictor", c.bp, bpred.New(cfg.BP)},
			{"store sets", c.ss, storesets.New(cfg.SS)},
			{"SPCT", c.spct, core.NewSPCT(cfg.SPCT)},
			{"SSBF", c.ssbf, core.NewSSBF(cfg.SVW.SSBF)},
			{"IT", c.it, rle.New(cfg.RLE.IT)},
			{"steering", c.steer, lsq.NewSteering()},
		} {
			if !reflect.DeepEqual(s.got, s.want) {
				t.Errorf("%s: %s after Reset differs from a new one", cfg.Name, s.name)
			}
		}
	}
}

// TestResetOnFallsBackWhenStartDropped: a core bound to a shared trace
// that has already dropped its first records records its own, with the
// same results as Reset.
func TestResetOnFallsBackWhenStartDropped(t *testing.T) {
	cfg := allConfigs()[0]
	cfg.MaxInsts, cfg.WarmupInsts = 5_000, 0
	p := workload.Cached("gcc")
	tr := NewTrace(p, nil)
	s := new(emu.Stream)
	s.Reset(tr)
	for i := uint64(0); i < 3_000; i++ {
		s.Next()
		s.Release(i)
	}
	if new(emu.Stream).Reset(tr) {
		t.Fatal("the trace still holds its first records; the fallback went unexercised")
	}
	c := new(Core)
	c.ResetOn(cfg, p, tr, nil)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	s.Detach()
	if ref := runCore(t, cfg, p); *ref.Stats() != *c.Stats() {
		t.Errorf("fallback run differs from a private one:\n got %+v\nwant %+v", *c.Stats(), *ref.Stats())
	}
}
