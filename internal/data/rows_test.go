package data

import (
	"slices"
	"testing"
)

func TestRowsAppendTuples(t *testing.T) {
	r := Rows{K: 2, N: 3, Vals: []int64{1, 2, 3, 4, 5, 6}}
	dst := []Tuple{{9}}
	out := r.AppendTuples(dst)
	if len(out) != 4 || !slices.Equal(out[0], Tuple{9}) {
		t.Fatalf("AppendTuples = %v, want dst's tuple then 3 rows", out)
	}
	for i, tu := range out[1:] {
		if !slices.Equal(tu, r.At(i)) || len(tu) != 2 || cap(tu) != 2 {
			t.Errorf("row %d: %v (len %d cap %d), want %v with len == cap == 2", i, tu, len(tu), cap(tu), r.At(i))
		}
	}
	_ = append(out[1], 7)
	if r.Vals[2] != 3 {
		t.Error("appending to a tuple overwrote the next row")
	}
}

// TestRowsCountsWithoutValues: N is not derived from len(Vals), so empty
// rows (K == 0) count, and no rows at all leave a nil destination nil.
func TestRowsCountsWithoutValues(t *testing.T) {
	if out := (Rows{K: 0, N: 3}).AppendTuples(nil); len(out) != 3 || len(out[2]) != 0 {
		t.Errorf("K = 0, N = 3: %v, want 3 empty tuples", out)
	}
	if out := (Rows{K: 3}).AppendTuples(nil); out != nil {
		t.Errorf("N = 0: %v, want nil", out)
	}
	if out := (Rows{}).AppendTuples(nil); out != nil {
		t.Errorf("zero Rows: %v, want nil", out)
	}
}
