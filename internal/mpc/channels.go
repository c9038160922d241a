// The legacy channel communication engine (Cluster.Comm = ChannelComm).
//
// One goroutine per send part routes its rows and ships column-slab
// batches over one buffered channel per server, drained by one receiver
// goroutine per server — Θ(Virtual + parts) goroutines per round. It is
// kept as the reference implementation the sharded engine is differentially
// tested against (the fuzz test asserts both deliver identical fragments as
// multisets with identical loads).
package mpc

import (
	"fmt"
	"sync"

	"repro/internal/data"
)

// communicateChannels runs the legacy goroutine-per-server delivery
// machinery.
func (c *Cluster) communicateChannels(parts []sendPart, router Router) error {
	var errOnce sync.Once
	var routeErr error
	report := func(err error) {
		errOnce.Do(func() { routeErr = err })
	}
	inboxes := make([]chan delivery, c.P)
	for i := range inboxes {
		// Small buffers keep memory proportional to the virtual-server
		// count manageable (the §4.2 algorithm spawns Θ(p) servers per bin
		// combination).
		inboxes[i] = make(chan delivery, 8)
	}

	var recvWG sync.WaitGroup
	recvWG.Add(c.P)
	for i := 0; i < c.P; i++ {
		go func(s *Server, in <-chan delivery) {
			defer recvWG.Done()
			for d := range in {
				frag, ok := s.Received[d.rel]
				if !ok {
					frag = data.NewRelation(d.rel, d.arity, d.domain)
					s.Received[d.rel] = frag
				}
				frag.AppendColumns(d.cols, d.count)
				s.BitsIn += d.bits * int64(d.count)
				s.TuplesIn += int64(d.count)
			}
		}(c.Servers[i], inboxes[i])
	}

	var sendWG sync.WaitGroup
	for _, part := range parts {
		sendWG.Add(1)
		go func(rel *data.Relation, lo, hi int) {
			defer sendWG.Done()
			// Per-sender router instance (private scratch) and
			// per-destination batches local to this sender.
			r := forSender(router)
			cr, columnar := r.(ColumnRouter)
			cols := rel.Columns()
			arity := rel.Arity
			bufs := make(map[int]*delivery)
			var dst []int
			var dedup dedupSet
			scratch := make(data.Tuple, arity)
			newSlabs := func() [][]int64 {
				s := make([][]int64, arity)
				for a := range s {
					s[a] = make([]int64, 0, batchTuples)
				}
				return s
			}
			flush := func(server int) {
				d := bufs[server]
				if d == nil || d.count == 0 {
					return
				}
				inboxes[server] <- *d
				// The receiver now owns d.cols; start fresh slabs at
				// full capacity so appends never regrow them.
				d.cols = newSlabs()
				d.count = 0
			}
			for i := lo; i < hi; i++ {
				if columnar {
					dst = cr.DestinationsAt(rel, i, dst[:0])
				} else {
					dst = r.Destinations(rel.Name, rel.ReadTuple(i, scratch), dst[:0])
				}
				for _, server := range dedup.dedup(dst) {
					if server < 0 || server >= c.P {
						report(fmt.Errorf("mpc: destination %d out of range [0,%d)", server, c.P))
						continue
					}
					d := bufs[server]
					if d == nil {
						d = &delivery{
							rel: rel.Name, arity: arity, domain: rel.Domain,
							bits: rel.BitsPerTuple(),
							cols: newSlabs(),
						}
						bufs[server] = d
					}
					for a := 0; a < arity; a++ {
						d.cols[a] = append(d.cols[a], cols[a][i])
					}
					d.count++
					if d.count >= batchTuples {
						flush(server)
					}
				}
			}
			for server := range bufs {
				flush(server)
			}
		}(part.rel, part.lo, part.hi)
	}
	sendWG.Wait()
	for _, in := range inboxes {
		close(in)
	}
	recvWG.Wait()
	return routeErr
}
