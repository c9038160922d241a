package exec

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/mpc"
)

// ClusterPool recycles mpc.Clusters across executions. Building a cluster
// costs Θ(Virtual) server and map allocations; an engine serving repeated
// traffic off its plan cache pays that on every Execute unless clusters
// are reused. The pool buckets clusters by virtual-server count rounded up
// to a power of two, so a Get for any size in a bucket can reuse any
// cluster parked there (mpc.Cluster.Resize re-targets it and resets its
// state, retaining servers and map storage).
//
// The pool is bounded: each bucket parks at most DefaultClusterPoolDepth
// clusters, so a burst of oversized plans cannot pin unbounded cluster
// memory — clusters put back into a full bucket are discarded to the
// garbage collector and counted in Stats.
//
// The zero value is ready to use. Clusters obtained from Get are owned
// exclusively until Put; the pool itself is safe for concurrent use.
type ClusterPool struct {
	mu      sync.Mutex
	buckets [64][]*mpc.Cluster
	parked  int

	gets, reuses, puts, discards uint64
}

// DefaultClusterPoolDepth is the per-bucket bound of every ClusterPool:
// enough parked clusters to serve a small burst of same-sized concurrent
// executions, small enough that 64 buckets cannot pin more than a few
// hundred clusters process-wide.
const DefaultClusterPoolDepth = 4

// PoolStats reports a ClusterPool's traffic and occupancy.
type PoolStats struct {
	// Gets counts Get calls; Reuses of them were served by a parked
	// cluster (the rest built one).
	Gets, Reuses uint64
	// Puts counts Put calls; Discards of them found their bucket full and
	// dropped the cluster instead of parking it.
	Puts, Discards uint64
	// Parked is the number of clusters currently held, and ParkedServers
	// the total server count across them — the memory the pool pins.
	Parked        int
	ParkedServers int64
}

// clusterBucket returns the bucket index for n servers: the smallest b
// with 1<<b >= n.
func clusterBucket(n int) int {
	return bits.Len(uint(n - 1))
}

// clusterPrealloc is the largest bucket Get fully preallocates; beyond it
// (over a million virtual servers) clusters are sized exactly to avoid
// absurd rounding overhead.
const clusterPrealloc = 20

// Get returns a cluster resized to exactly virtual servers with all
// fragments and loads cleared — recycled when the bucket has one, freshly
// built otherwise.
func (cp *ClusterPool) Get(virtual int) *mpc.Cluster {
	if virtual < 1 {
		panic(fmt.Sprintf("exec: cluster size %d", virtual))
	}
	b := clusterBucket(virtual)
	cp.mu.Lock()
	cp.gets++
	if n := len(cp.buckets[b]); n > 0 {
		c := cp.buckets[b][n-1]
		cp.buckets[b][n-1] = nil
		cp.buckets[b] = cp.buckets[b][:n-1]
		cp.reuses++
		cp.parked--
		cp.mu.Unlock()
		return c.Resize(virtual)
	}
	cp.mu.Unlock()
	capacity := virtual
	if b <= clusterPrealloc {
		// Build the bucket's full capacity up front so this cluster can
		// serve any size in its bucket without regrowing.
		capacity = 1 << b
	}
	return mpc.NewCluster(capacity).Resize(virtual)
}

// Put parks a cluster for reuse, or discards it when its bucket is already
// holding DefaultClusterPoolDepth clusters. The caller must not touch it afterwards.
func (cp *ClusterPool) Put(c *mpc.Cluster) {
	if c == nil {
		return
	}
	// Release fragments before parking: a pooled cluster must not pin the
	// run's delivered data (which can dwarf the cluster itself) until the
	// next Get happens to clear it.
	c.Reset()
	b := clusterBucket(c.Capacity())
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.puts++
	if len(cp.buckets[b]) >= DefaultClusterPoolDepth {
		cp.discards++
		return
	}
	cp.buckets[b] = append(cp.buckets[b], c)
	cp.parked++
}

// Stats returns the pool's counters and current occupancy.
func (cp *ClusterPool) Stats() PoolStats {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	st := PoolStats{
		Gets: cp.gets, Reuses: cp.reuses,
		Puts: cp.puts, Discards: cp.discards,
		Parked: cp.parked,
	}
	for _, bucket := range cp.buckets {
		for _, c := range bucket {
			st.ParkedServers += int64(c.Capacity())
		}
	}
	return st
}

// sharedClusters serves every execution without an explicit
// Config.Clusters pool.
var sharedClusters ClusterPool
