// Adapters for the frozen bench/trace.go, which calls these names. Nothing
// else may. ROADMAP item 2(II), the next change to bench/, deletes this file
// and Config.Scratch.

package exec

import (
	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/mpc"
)

// Run executes plan as a one-stage pipeline.
func Run(plan *PhysicalPlan, db *data.Database, cfg Config) (Result, error) {
	return Execute(OneRound(plan), db, cfg)
}

// RunPipeline is Execute.
func RunPipeline(pl *Pipeline, db *data.Database, cfg Config) (Result, error) {
	return Execute(pl, db, cfg)
}

// Local returns server s's answers with one header each.
func (p *PhysicalPlan) Local(s *mpc.Server) []data.Tuple { return join.Join(p.Query, s.Received) }

// Scratch holds nothing: every execution allocates its own loads.
type Scratch struct{}

// DetachOutput does nothing.
func (s *Scratch) DetachOutput() {}
