// Adapters for the frozen bench/trace.go, which drives a cluster phase by
// phase through these names. Nothing else may. ROADMAP item 2(II), the next
// change to bench/, deletes this file and Cluster.faultErr.

package mpc

import (
	"fmt"

	"repro/internal/data"
)

// Round routes every relation of db (RoundRelations over db.Names()).
func (c *Cluster) Round(db *data.Database, router Router) error {
	rels := make([]*data.Relation, 0, len(db.Relations))
	for _, name := range db.Names() {
		rels = append(rels, db.Relations[name])
	}
	return c.RoundRelations(router, rels...)
}

// ComputeGather runs f on every server into outs[s.ID] and returns the
// servers whose injected compute failure skipped f.
func (c *Cluster) ComputeGather(outs [][]data.Tuple, f func(s *Server) []data.Tuple) []int {
	return c.ComputeOn(nil, func(s *Server) { outs[s.ID] = f(s) })
}

// ComputeResident installs f's result on every server (Server.Install); a
// failed server is left empty and its failure kept for TakeFault.
func (c *Cluster) ComputeResident(f func(s *Server) *data.Relation) {
	for _, id := range c.ComputeOn(nil, func(s *Server) { s.Install(f(s)) }) {
		if c.faultErr == nil {
			c.faultErr = fmt.Errorf("mpc: compute phase %d, server %d: %w", c.curPhase, id, ErrComputeFailed)
		}
		clear(c.Servers[id].Received)
	}
}

// TakeFault returns and clears ComputeResident's first failure, or nil.
func (c *Cluster) TakeFault() error {
	err := c.faultErr
	c.faultErr = nil
	return err
}
