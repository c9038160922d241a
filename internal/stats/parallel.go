package stats

import (
	"runtime"
	"sync"

	"repro/internal/hashing"
)

// parallelMinRows is the row count below which the chunked statistics scans
// stay serial: goroutine fan-out costs more than it saves on small
// relations. A var (not const) so tests can lower it and exercise the
// parallel paths on small inputs.
var parallelMinRows = 1 << 15

// scanChunks splits [0, m) into up to GOMAXPROCS near-equal half-open row
// ranges, or returns nil when the scan should stay serial (small input or a
// single-CPU process).
func scanChunks(m int) [][2]int {
	workers := runtime.GOMAXPROCS(0)
	if m < parallelMinRows || workers < 2 {
		return nil
	}
	if workers > m {
		workers = m
	}
	out := make([][2]int, 0, workers)
	for i := 0; i < workers; i++ {
		lo, hi := i*m/workers, (i+1)*m/workers
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	if len(out) < 2 {
		return nil
	}
	return out
}

// rescanContent recomputes one relation's commutative content sum from its
// columns. The fold is a wrapping uint64 addition of avalanched per-tuple
// hashes — commutative and associative — so the chunked parallel scan is
// bit-identical to the serial one (FingerprintRescan stays the exact
// reference for data.Relation.ContentSum).
func rescanContent(cols [][]int64, m int) uint64 {
	chunks := scanChunks(m)
	if chunks == nil {
		return rescanContentRange(cols, 0, m)
	}
	partial := make([]uint64, len(chunks))
	var wg sync.WaitGroup
	for i, ch := range chunks {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			partial[i] = rescanContentRange(cols, lo, hi)
		}(i, ch[0], ch[1])
	}
	wg.Wait()
	var content uint64
	for _, s := range partial {
		content += s
	}
	return content
}

// rescanContentRange is the serial content fold over rows [lo, hi).
func rescanContentRange(cols [][]int64, lo, hi int) uint64 {
	var content uint64
	for i := lo; i < hi; i++ {
		th := fnvOffset
		for _, col := range cols {
			th = (th ^ uint64(col[i])) * fnvPrime
		}
		content += hashing.Mix64(th)
	}
	return content
}
