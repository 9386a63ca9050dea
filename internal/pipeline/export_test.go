package pipeline

import (
	"testing"

	"svwsim/internal/prog"
)

// RunSchedulerChecked runs cfg on p checking the scheduler's invariants
// after every step (see checkScheduler), for tests outside the package.
func RunSchedulerChecked(t *testing.T, cfg Config, p *prog.Program) *Core {
	return runChecked(t, cfg, p)
}
