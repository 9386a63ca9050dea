package pipeline_test

import (
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/workload"
)

// TestSchedulerInvariantsRegistry checks the scheduler after every step on
// every registry configuration — the machines the figures run — on three
// kernels.
func TestSchedulerInvariantsRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range sim.ConfigNames() {
		cfg, _ := sim.ConfigByName(name)
		cfg.MaxInsts, cfg.WarmupInsts = 5_000, 1_000
		for _, bench := range []string{"gcc", "twolf", "mcf"} {
			pipeline.RunSchedulerChecked(t, cfg, workload.Cached(bench))
		}
	}
}
