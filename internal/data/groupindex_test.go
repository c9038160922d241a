package data

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkGroupIndex holds x, built over rel by keyCols, to a map[string][]int
// reference keyed by Tuple.Key: same groups in first-occurrence order, same
// ascending rows, Lookup finds exactly the keys present, and LookupRow
// finds every row's group in place.
func checkGroupIndex(t *testing.T, x *GroupIndex, rel *Relation, keyCols []int) {
	t.Helper()
	ref := make(map[string][]int)
	var order []Tuple
	for i := 0; i < rel.Size(); i++ {
		key := make(Tuple, len(keyCols))
		for a, c := range keyCols {
			key[a] = rel.At(i, c)
		}
		k := key.Key()
		if _, ok := ref[k]; !ok {
			order = append(order, key)
		}
		ref[k] = append(ref[k], i)
	}
	if x.Groups() != len(order) {
		t.Fatalf("Groups = %d, want %d", x.Groups(), len(order))
	}
	total := 0
	for g, key := range order {
		want := ref[key.Key()]
		if x.Rep(g) != want[0] {
			t.Fatalf("group %d: Rep = %d, want first row %d", g, x.Rep(g), want[0])
		}
		rows := x.Rows(g)
		if x.Count(g) != len(want) || len(rows) != len(want) {
			t.Fatalf("group %d: Count = %d, len(Rows) = %d, want %d", g, x.Count(g), len(rows), len(want))
		}
		for i, r := range rows {
			if int(r) != want[i] {
				t.Fatalf("group %d: Rows = %v, want %v", g, rows, want)
			}
			if got := x.LookupRow(rel.Columns(), keyCols, int(r)); got != g {
				t.Fatalf("LookupRow(row %d) = %d, want group %d", r, got, g)
			}
		}
		total += len(rows)
		probe := slices.Clone(key)
		if got := x.Lookup(probe); got != g {
			t.Fatalf("Lookup(%v) = %d, want group %d", probe, got, g)
		}
		// A key one off in its last value is present only if the reference
		// says so.
		if len(probe) > 0 {
			probe[len(probe)-1]++
			_, present := ref[probe.Key()]
			if got := x.Lookup(probe); (got >= 0) != present {
				t.Fatalf("Lookup(%v) = %d, but present = %v", probe, got, present)
			}
		}
	}
	if total != rel.Size() {
		t.Fatalf("groups cover %d rows, relation has %d", total, rel.Size())
	}
	if x.Count(-1) != 0 || x.Rows(-1) != nil {
		t.Fatal("the -1 of a failed Lookup must read as an empty group")
	}
}

func randomRelation(rng *rand.Rand, arity, rows int, domain int64) *Relation {
	r := NewRelation("R", arity, domain)
	vals := make([]int64, arity)
	for i := 0; i < rows; i++ {
		for a := range vals {
			vals[a] = rng.Int63n(domain)
		}
		r.Add(vals...)
	}
	return r
}

func TestGroupIndexAgreesWithMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		arity := rng.Intn(5)
		rel := randomRelation(rng, arity, rng.Intn(300), 1+rng.Int63n(12))
		// Any list of columns is a key: subsets, permutations, repeats.
		keyCols := make([]int, 0, 4)
		if arity > 0 {
			for n := rng.Intn(4); len(keyCols) < n; {
				keyCols = append(keyCols, rng.Intn(arity))
			}
		}
		var x GroupIndex
		x.Build(rel, keyCols)
		checkGroupIndex(t, &x, rel, keyCols)
	}
}

func TestGroupIndexEdgeShapes(t *testing.T) {
	var x GroupIndex

	empty := NewRelation("E", 2, 10)
	x.Build(empty, []int{0})
	checkGroupIndex(t, &x, empty, []int{0})
	if x.Lookup([]int64{3}) != -1 {
		t.Fatal("Lookup on an empty relation found a group")
	}

	same := NewRelation("Same", 2, 10)
	distinct := NewRelation("Distinct", 2, 1000)
	for i := int64(0); i < 500; i++ {
		same.Add(7, 7)
		distinct.Add(i, 999-i)
	}
	x.Build(same, []int{0, 1})
	checkGroupIndex(t, &x, same, []int{0, 1})
	if x.Groups() != 1 || x.Count(0) != 500 {
		t.Fatalf("all rows equal: %d groups, first has %d rows", x.Groups(), x.Count(0))
	}
	x.Build(distinct, []int{1, 0})
	checkGroupIndex(t, &x, distinct, []int{1, 0})
	if x.Groups() != 500 {
		t.Fatalf("all rows distinct: %d groups", x.Groups())
	}

	// No key columns: one group holding every row, found by the empty key.
	x.Build(distinct, nil)
	checkGroupIndex(t, &x, distinct, nil)
	if x.Groups() != 1 || x.Lookup(nil) != 0 || x.Count(0) != 500 {
		t.Fatalf("zero-width key: %d groups, Lookup(nil) = %d", x.Groups(), x.Lookup(nil))
	}
	// ... and none when there are no rows.
	x.Build(empty, nil)
	if x.Groups() != 0 || x.Lookup(nil) != -1 {
		t.Fatalf("zero-width key over no rows: %d groups, Lookup(nil) = %d", x.Groups(), x.Lookup(nil))
	}
}

// TestGroupIndexLowBitCollisions fills the table with keys whose hashes all
// share their low bits, so every insert and every probe walks one long
// collision chain.
func TestGroupIndexLowBitCollisions(t *testing.T) {
	const groups, lowBits = 64, 1<<12 - 1
	rel := NewRelation("C", 1, math.MaxInt64)
	var keys []int64
	for v := int64(0); len(keys) < groups; v++ {
		if mixKey(0, v)&lowBits == 0 {
			keys = append(keys, v)
		}
	}
	for rep := 0; rep < 3; rep++ {
		for _, v := range keys {
			rel.Add(v)
		}
	}
	var x GroupIndex
	x.Build(rel, []int{0})
	if len(x.slots)-1 > lowBits {
		t.Fatalf("table of %d slots indexes by more bits than the keys share", len(x.slots))
	}
	checkGroupIndex(t, &x, rel, []int{0})
	if x.Groups() != groups {
		t.Fatalf("Groups = %d, want %d", x.Groups(), groups)
	}
}

// TestGroupIndexReuse rebuilds one index over relations of growing, then
// shrinking size: no slot, group or row of an earlier Build may survive.
// Every other Build is followed by a Release, which must leave no reference
// to any column, even one an earlier, wider key left beyond len(cols).
func TestGroupIndexReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var x GroupIndex
	for i, rows := range []int{3, 40, 900, 5000, 700, 12, 0, 1} {
		rel := randomRelation(rng, 3, rows, 1+int64(rows)/3)
		keyCols := []int{2, 0}[:1+rows%2]
		x.Build(rel, keyCols)
		checkGroupIndex(t, &x, rel, keyCols)
		if i%2 == 1 {
			x.Release()
			if slices.ContainsFunc(x.cols[:cap(x.cols)], func(c []int64) bool { return c != nil }) {
				t.Fatalf("build %d: Release kept a column reference", i)
			}
		}
	}
}

func TestGroupIndexRejectsTooManyRows(t *testing.T) {
	// Row ids are int32. A nullary relation of 2³¹ rows costs no memory.
	rows := int64(math.MaxInt32) + 1
	if int64(int(rows)) != rows {
		t.Skip("int is 32 bits: no relation can be too large")
	}
	huge := &Relation{Name: "Huge", rows: int(rows)}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Huge") {
			t.Fatalf("Build over 2^31 rows: panic %q does not name the relation", msg)
		}
	}()
	new(GroupIndex).Build(huge, nil)
}

func TestGroupIndexAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := randomRelation(rng, 2, 2000, 50)
	keyCols := []int{1, 0}
	var x GroupIndex
	x.Build(rel, keyCols)
	if n := testing.AllocsPerRun(20, func() { x.Build(rel, keyCols) }); n != 0 {
		t.Errorf("Build on a warm index: %v allocs, want 0", n)
	}
	key := []int64{rel.At(17, 1), rel.At(17, 0)}
	miss := []int64{49, 50}
	if n := testing.AllocsPerRun(100, func() {
		if x.Lookup(key) < 0 || x.Lookup(miss) >= 0 {
			t.Fatal("Lookup lost a key")
		}
	}); n != 0 {
		t.Errorf("Lookup: %v allocs, want 0", n)
	}
}

// FuzzGroupIndex decodes fuzz bytes into a relation (arity 0..3, values
// from a small domain so keys repeat) and a key-column list, and checks the
// index against the map reference — twice over one index, the second time
// over a prefix, to cover reuse.
func FuzzGroupIndex(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 3, 4, 1, 2}, uint8(2), uint8(0b0110))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9}, uint8(3), uint8(0xff))
	f.Add([]byte{0, 0, 0}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, arityByte, keyByte uint8) {
		arity := int(arityByte % 4)
		rel := NewRelation("F", arity, 256)
		if arity == 0 {
			for range raw {
				rel.Add()
			}
		}
		vals := make([]int64, arity)
		for i := 0; arity > 0 && i+arity <= len(raw); i += arity {
			for a := range vals {
				vals[a] = int64(raw[i+a] % 8)
			}
			rel.Add(vals...)
		}
		// keyByte spells up to three key columns: the top two bits say how
		// many, then two bits each.
		var keyCols []int
		for n := int(keyByte>>6) % 4; arity > 0 && len(keyCols) < n; keyByte >>= 2 {
			keyCols = append(keyCols, int(keyByte&3)%arity)
		}
		var x GroupIndex
		x.Build(rel, keyCols)
		checkGroupIndex(t, &x, rel, keyCols)

		half := NewRelation("H", arity, 256)
		half.AppendColumns(rel.Columns(), rel.Size()/2)
		x.Build(half, keyCols)
		checkGroupIndex(t, &x, half, keyCols)
	})
}
