package mpc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

func TestResidentLayoutInternsIndexes(t *testing.T) {
	l := &ResidentLayout{}
	a := l.AddIndex("S", []int{1, 0})
	b := l.AddIndex("S", []int{0, 1}) // same set, different order
	if a != b {
		t.Fatalf("AddIndex did not intern position sets: %d vs %d", a, b)
	}
	c := l.AddIndex("S", []int{0})
	d := l.AddIndex("T", []int{0})
	if c == a || d == c {
		t.Fatalf("distinct indexes share a kind: %d %d %d", a, c, d)
	}
	if l.Rel("S") != 0 || l.Rel("T") != 1 || l.Rel("absent") != -1 {
		t.Fatalf("relation numbers S=%d T=%d absent=%d, want 0 1 -1", l.Rel("S"), l.Rel("T"), l.Rel("absent"))
	}
	if got := l.Kinds[a].Pos; got[0] != 0 || got[1] != 1 {
		t.Fatalf("positions not canonicalized ascending: %v", got)
	}
}

// probeRows collects the rows Probe and Next yield for key, as tuples.
func probeRows(r *Resident, kind int, key ...int64) [][]int64 {
	var out [][]int64
	cols := r.Cols(kind)
	for row := r.Probe(kind, key); row >= 0; row = r.Next(kind, row) {
		t := make([]int64, len(cols))
		for a, col := range cols {
			t[a] = col[row]
		}
		out = append(out, t)
	}
	return out
}

func TestResidentInsertProbeDelete(t *testing.T) {
	l := &ResidentLayout{}
	byZ := l.AddIndex("S", []int{1})
	all := l.AddIndex("S", nil) // empty-key index: disconnected probes
	s := l.Rel("S")
	r := NewResident(l)

	r.Insert(s, []int64{1, 7})
	r.Insert(s, []int64{2, 7})
	r.Insert(s, []int64{3, 8})
	if got := r.Tuples(); got != 3 {
		t.Fatalf("Tuples() = %d, want 3", got)
	}
	if got := probeRows(r, byZ, 7); len(got) != 2 {
		t.Fatalf("Probe(z=7) = %v, want 2 matches", got)
	}
	if got := probeRows(r, all); len(got) != 3 {
		t.Fatalf("empty-key probe = %v, want all 3 tuples", got)
	}
	if got := r.Probe(byZ, []int64{9}); got != -1 {
		t.Fatalf("Probe(z=9) = %d, want -1", got)
	}

	// Delete must remove the tuple from every index over the relation.
	if !r.Delete(s, []int64{2, 7}) {
		t.Fatal("Delete of present tuple returned false")
	}
	if got := probeRows(r, byZ, 7); len(got) != 1 || got[0][0] != 1 {
		t.Fatalf("after delete Probe(z=7) = %v, want [[1 7]]", got)
	}
	if got := probeRows(r, all); len(got) != 2 {
		t.Fatalf("after delete empty-key probe = %v, want 2 tuples", got)
	}
	if r.Delete(s, []int64{2, 7}) {
		t.Fatal("Delete of absent tuple reported success")
	}
	// Relations outside the layout are a silent no-op (op streams carry
	// every relation of the database).
	if !r.Delete(l.Rel("unrelated"), []int64{1}) {
		t.Fatal("Delete on un-indexed relation must not report inconsistency")
	}

	// Inserted tuples are copies: mutating the caller's slice afterwards
	// must not corrupt resident state.
	mut := []int64{5, 7}
	r.Insert(s, mut)
	mut[1] = 999
	if got := probeRows(r, byZ, 7); len(got) != 2 {
		t.Fatalf("resident state aliased a mutated caller tuple: %v", got)
	}
}

// TestResidentMirrorsScan drives random inserts and deletes through three
// indexes over one relation — a single position, a pair, and the empty key
// — and after every step holds every probe to a scan of the live tuples:
// the swap-removes must keep every chain and every key's entry in step.
func TestResidentMirrorsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := &ResidentLayout{}
	kinds := []int{l.AddIndex("R", []int{0}), l.AddIndex("R", []int{1, 2}), l.AddIndex("R", nil)}
	rel := l.Rel("R")
	r := NewResident(l)
	var live [][]int64
	for step := 0; step < 3000; step++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			i := rng.Intn(len(live))
			if !r.Delete(rel, live[i]) {
				t.Fatalf("step %d: Delete(%v) lost a live tuple", step, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			tu := []int64{rng.Int63n(6), rng.Int63n(4), rng.Int63n(4)}
			dup := false
			for _, l := range live {
				dup = dup || slices.Equal(l, tu)
			}
			if dup {
				continue
			}
			r.Insert(rel, tu)
			live = append(live, tu)
		}
		if r.Tuples() != int64(len(live)) {
			t.Fatalf("step %d: Tuples() = %d, want %d", step, r.Tuples(), len(live))
		}
		if step%7 != 0 {
			continue
		}
		for ki, kind := range kinds {
			pos := l.Kinds[kind].Pos
			for _, key := range allKeys(len(pos), 6) {
				var want [][]int64
				for _, tu := range live {
					match := true
					for i, p := range pos {
						match = match && tu[p] == key[i]
					}
					if match {
						want = append(want, tu)
					}
				}
				got := probeRows(r, kind, key...)
				slices.SortFunc(got, slices.Compare)
				slices.SortFunc(want, slices.Compare)
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("step %d index %d key %v: probe %v, scan %v", step, ki, key, got, want)
				}
			}
		}
	}
}

// allKeys lists every key of width values from [0, domain).
func allKeys(width int, domain int64) [][]int64 {
	keys := [][]int64{{}}
	for ; width > 0; width-- {
		var longer [][]int64
		for _, k := range keys {
			for v := int64(0); v < domain; v++ {
				longer = append(longer, append(slices.Clone(k), v))
			}
		}
		keys = longer
	}
	return keys
}

func TestCountedTransitions(t *testing.T) {
	c := NewCounted(2)
	t1 := []int64{1, 2}
	t2 := []int64{3, 4}

	r1 := c.Add(t1, 1)
	if c.Add(t1, 1) != r1 || c.Count(r1) != 2 {
		t.Fatalf("second derivation: row %d count %d", r1, c.Count(r1))
	}
	r2 := c.Add(t2, 3)
	if len(c.count) != 2 || c.Count(r2) != 3 || c.rows.Lookup(t2) != r2 {
		t.Fatalf("counts wrong: len=%d c2=%d", len(c.count), c.Count(r2))
	}

	// Retiring one of several derivations keeps the answer live.
	c.Add(t1, -1)
	c.Retire([]int32{int32(r1)})
	if c.rows.Lookup(t1) != r1 || c.Count(r1) != 1 {
		t.Fatalf("partial retraction lost the answer: row %d", c.rows.Lookup(t1))
	}
	// The last derivation leaves a zero-count row until Retire drops it.
	c.Add(t1, -1)
	if len(c.count) != 2 || c.Count(r1) != 0 {
		t.Fatalf("before Retire: len=%d count=%d", len(c.count), c.Count(r1))
	}
	if live := c.Tuples(); len(live) != 1 || !slices.Equal(live[0], t2) {
		t.Fatalf("live answers = %v, want [[3 4]]", live)
	}
	c.Retire([]int32{int32(r1), int32(c.rows.Lookup(t2))})
	if len(c.count) != 1 || c.rows.Lookup(t1) != -1 || c.Count(c.rows.Lookup(t2)) != 3 {
		t.Fatalf("after Retire: len=%d", len(c.count))
	}
	// Re-appearing after a full retraction is a fresh row.
	if r := c.Add(t1, 1); r != 1 || c.Count(r) != 1 {
		t.Fatalf("re-insert after retraction: row %d", r)
	}
	if n := len(c.Tuples()); n != 2 {
		t.Fatalf("Tuples has %d answers, want 2", n)
	}
}

func TestCountedNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("retracting an underived tuple did not panic")
		}
	}()
	NewCounted(1).Add([]int64{1}, -1)
}

// TestCountedRandomizedMirrorsMap drives random signed updates through
// Counted and a plain map oracle, retiring the touched rows every few
// steps, and checks the live answers and counts (the swap-remove
// bookkeeping is the risky part), then that Minus and Copy hand out
// caller-owned rows.
func TestCountedRandomizedMirrorsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := NewCounted(1)
	oracle := make(map[int64]int64)
	touched := map[int32]bool{}
	for step := 0; step < 5000; step++ {
		v := int64(rng.Intn(40))
		if oracle[v] > 0 && rng.Intn(2) == 0 {
			touched[int32(c.Add([]int64{v}, -1))] = true
			oracle[v]--
		} else {
			touched[int32(c.Add([]int64{v}, 1))] = true
			oracle[v]++
		}
		if step%13 == 0 {
			var rows []int32
			for r := range touched {
				rows = append(rows, r)
			}
			c.Retire(rows)
			clear(touched)
		}
	}
	var wantLive []int64
	for v, n := range oracle {
		if n > 0 {
			wantLive = append(wantLive, v)
		}
	}
	var gotLive []int64
	for _, tu := range c.Tuples() {
		gotLive = append(gotLive, tu[0])
		if n := c.Count(c.rows.Lookup(tu)); n != oracle[tu[0]] {
			t.Fatalf("count of %d = %d, oracle %d", tu[0], n, oracle[tu[0]])
		}
	}
	slices.Sort(gotLive)
	slices.Sort(wantLive)
	if !slices.Equal(gotLive, wantLive) {
		t.Fatalf("live answers %v, oracle %v", gotLive, wantLive)
	}

	other := NewCounted(1)
	other.Add([]int64{wantLive[0]}, 1)
	minus := c.Minus(other)
	if len(minus) != len(wantLive)-1 {
		t.Fatalf("Minus kept %d answers, want %d", len(minus), len(wantLive)-1)
	}
	minus[0][0] = -1
	if c.rows.Lookup([]int64{-1}) != -1 {
		t.Fatal("writing into a Minus row reached the counted arena")
	}
}

// BenchmarkResidentChunk sweeps the resident-shuffle chunk size over a
// skewed intermediate (everything on one hot server), the workload the
// chunking exists for: small chunks buy parallel routing of a hot fragment
// at per-part overhead, huge chunks serialize the hot server's send. The
// tuned default (DefaultResidentChunkTuples = 1024) sits on the flat
// bottom of this curve.
func BenchmarkResidentChunk(b *testing.B) {
	const m = 200_000
	domain := int64(1)
	for domain < m {
		domain *= 2
	}
	db := data.NewDatabase()
	r := data.NewRelation("S", 1, domain)
	for i := int64(0); i < m; i++ {
		r.Add(i)
	}
	db.Put(r)
	hot := routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 0)
	})
	spread := routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]%16))
	})
	for _, chunk := range []int{128, 512, 1024, 4096, 65536} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			c := NewCluster(16)
			c.ResidentChunk = chunk
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.Reset()
				if err := roundAll(c, db, hot); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := c.ShuffleResident(spread, "S"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
