package data

import (
	"math/rand"
	"slices"
	"testing"
)

// keyRef is the map reference a KeyTable is checked against: the same dense
// entry numbering, kept by the same swap-remove, over map membership keyed
// by each key's Tuple.Key rendering.
type keyRef struct {
	keys [][]int64
	pos  map[string]int
}

func newKeyRef() *keyRef { return &keyRef{pos: make(map[string]int)} }

func (m *keyRef) insert(key []int64) (int, bool) {
	if e, ok := m.pos[Tuple(key).Key()]; ok {
		return e, false
	}
	m.pos[Tuple(key).Key()] = len(m.keys)
	m.keys = append(m.keys, slices.Clone(key))
	return len(m.keys) - 1, true
}

func (m *keyRef) delete(e int) int {
	last := len(m.keys) - 1
	delete(m.pos, Tuple(m.keys[e]).Key())
	if e != last {
		m.keys[e] = m.keys[last]
		m.pos[Tuple(m.keys[e]).Key()] = e
	}
	m.keys = m.keys[:last]
	return last
}

// checkKeyTable holds tab to the reference: the same entries under the same
// numbers, each found by Lookup, and a key one off in its last value found
// exactly when the reference holds it.
func checkKeyTable(t *testing.T, tab *KeyTable, ref *keyRef) {
	t.Helper()
	if tab.Len() != len(ref.keys) {
		t.Fatalf("Len = %d, reference holds %d", tab.Len(), len(ref.keys))
	}
	for e, want := range ref.keys {
		if got := tab.Key(e); !slices.Equal(got, want) {
			t.Fatalf("entry %d: Key = %v, want %v", e, got, want)
		}
		if got := tab.Lookup(want); got != e {
			t.Fatalf("Lookup(%v) = %d, want %d", want, got, e)
		}
		if len(want) > 0 {
			off := slices.Clone(want)
			off[len(off)-1]++
			wantE, ok := ref.pos[Tuple(off).Key()]
			if got := tab.Lookup(off); (got >= 0) != ok || (ok && got != wantE) {
				t.Fatalf("Lookup(%v) = %d, reference has it: %v at %d", off, got, ok, wantE)
			}
		}
	}
}

// runKeyOps drives one random insert/delete/lookup sequence through tab and
// the reference, checking every result and, every check steps, the whole
// table.
func runKeyOps(t *testing.T, rng *rand.Rand, tab *KeyTable, ref *keyRef, width, ops int, domain int64, check int) {
	t.Helper()
	key := make([]int64, width)
	for op := 0; op < ops; op++ {
		for a := range key {
			key[a] = rng.Int63n(domain)
		}
		switch rng.Intn(3) {
		case 0:
			e, added := tab.Insert(key)
			we, wadded := ref.insert(key)
			if e != we || added != wadded {
				t.Fatalf("op %d: Insert(%v) = %d, %v; reference %d, %v", op, key, e, added, we, wadded)
			}
		case 1:
			if tab.Len() == 0 {
				continue
			}
			e := rng.Intn(tab.Len())
			if moved, want := tab.Delete(e), ref.delete(e); moved != want {
				t.Fatalf("op %d: Delete(%d) moved %d, want %d", op, e, moved, want)
			}
		case 2:
			we, ok := ref.pos[Tuple(key).Key()]
			if !ok {
				we = -1
			}
			if got := tab.Lookup(key); got != we {
				t.Fatalf("op %d: Lookup(%v) = %d, want %d", op, key, got, we)
			}
		}
		if op%check == 0 {
			checkKeyTable(t, tab, ref)
		}
	}
	checkKeyTable(t, tab, ref)
}

func TestKeyTableAgreesWithMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		width := []int{0, 1, 2, 3, 9}[trial%5]
		var tab KeyTable
		tab.Reset(width)
		runKeyOps(t, rng, &tab, newKeyRef(), width, 1500, 1+rng.Int63n(20), 50)
	}
}

// TestKeyTableGrowShrinkReuse grows one table to thousands of entries,
// deletes it empty, grows it again, and reuses it at another width: no
// entry or slot of an earlier use may survive.
func TestKeyTableGrowShrinkReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var tab KeyTable
	for _, width := range []int{2, 2, 9, 0, 1} {
		tab.Reset(width)
		ref := newKeyRef()
		key := make([]int64, width)
		for i := 0; i < 5000; i++ {
			for a := range key {
				key[a] = rng.Int63n(1 << 20)
			}
			tab.Insert(key)
			ref.insert(key)
		}
		checkKeyTable(t, &tab, ref)
		for tab.Len() > 0 {
			e := rng.Intn(tab.Len())
			tab.Delete(e)
			ref.delete(e)
			if tab.Len()%997 == 0 {
				checkKeyTable(t, &tab, ref)
			}
		}
		runKeyOps(t, rng, &tab, ref, width, 3000, 64, 500)
	}
}

// TestKeyTableLowBitCollisions inserts and deletes keys whose hashes all
// share their low bits, so every operation walks, and every delete
// back-shifts, one long probe chain that wraps around the table's end.
func TestKeyTableLowBitCollisions(t *testing.T) {
	const n, lowBits = 200, 1<<12 - 1
	var keys []int64
	for v := int64(0); len(keys) < n; v++ {
		if mixKey(0, v)&lowBits == lowBits {
			keys = append(keys, v)
		}
	}
	rng := rand.New(rand.NewSource(5))
	var tab KeyTable
	tab.Reset(1)
	ref := newKeyRef()
	for round := 0; round < 4; round++ {
		for _, i := range rng.Perm(n) {
			tab.Insert(keys[i : i+1])
			ref.insert(keys[i : i+1])
		}
		if len(tab.slots)-1 > lowBits {
			t.Fatalf("table of %d slots indexes by more bits than the keys share", len(tab.slots))
		}
		checkKeyTable(t, &tab, ref)
		for i := 0; i < n/2; i++ {
			e := rng.Intn(tab.Len())
			tab.Delete(e)
			ref.delete(e)
		}
		checkKeyTable(t, &tab, ref)
	}
}

// TestKeyTableSwapRemovePayload keeps a payload column beside the entries
// the way every consumer does, moving it as Delete reports.
func TestKeyTableSwapRemovePayload(t *testing.T) {
	var tab KeyTable
	tab.Reset(2)
	var payload []int64
	for v := int64(0); v < 100; v++ {
		if e, _ := tab.Insert([]int64{v, -v}); e != len(payload) {
			t.Fatalf("new entry %d, want %d", e, len(payload))
		}
		payload = append(payload, v)
	}
	rng := rand.New(rand.NewSource(6))
	for tab.Len() > 0 {
		e := rng.Intn(tab.Len())
		moved := tab.Delete(e)
		if moved != tab.Len() {
			t.Fatalf("Delete moved entry %d, want the last (%d)", moved, tab.Len())
		}
		payload[e] = payload[moved]
		payload = payload[:moved]
		for e, v := range payload {
			if k := tab.Key(e); k[0] != v || k[1] != -v || tab.Lookup(k) != e {
				t.Fatalf("entry %d holds %v, payload says %d", e, k, v)
			}
		}
	}
}

func TestKeyTableZeroWidth(t *testing.T) {
	var tab KeyTable
	if tab.Lookup(nil) != -1 {
		t.Fatal("empty table found the empty key")
	}
	if e, added := tab.Insert(nil); e != 0 || !added {
		t.Fatalf("first Insert(nil) = %d, %v", e, added)
	}
	if e, added := tab.Insert([]int64{}); e != 0 || added {
		t.Fatalf("second Insert of the empty key = %d, %v", e, added)
	}
	if tab.Len() != 1 || tab.Lookup(nil) != 0 || len(tab.Key(0)) != 0 {
		t.Fatalf("Len = %d, Lookup(nil) = %d", tab.Len(), tab.Lookup(nil))
	}
	if tab.Delete(0) != 0 || tab.Len() != 0 || tab.Lookup(nil) != -1 {
		t.Fatal("deleting the empty key left it behind")
	}
}

func TestKeyTableInsertRejectsWidthMismatch(t *testing.T) {
	var tab KeyTable
	tab.Reset(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of a 3-value key into a width-2 table did not panic")
		}
	}()
	tab.Insert([]int64{1, 2, 3})
}

// TestKeyTableAllocs: once warm, the write path's operations allocate
// nothing — an insert-then-delete cycle reuses the arena and the slots.
func TestKeyTableAllocs(t *testing.T) {
	var tab KeyTable
	tab.Reset(3)
	for v := int64(0); v < 1000; v++ {
		tab.Insert([]int64{v, v + 1, v + 2})
	}
	key, miss := []int64{7, 8, 9}, []int64{7, 8, 10}
	fresh := []int64{5000, 1, 2}
	tab.Delete(tab.Lookup(key))
	if n := testing.AllocsPerRun(100, func() {
		e, _ := tab.Insert(fresh)
		tab.Delete(e)
	}); n != 0 {
		t.Errorf("warm Insert+Delete: %v allocs, want 0", n)
	}
	tab.Insert(key)
	if n := testing.AllocsPerRun(100, func() {
		if tab.Lookup(key) < 0 || tab.Lookup(miss) >= 0 {
			t.Fatal("Lookup lost a key")
		}
	}); n != 0 {
		t.Errorf("Lookup: %v allocs, want 0", n)
	}
}

// FuzzKeyTable decodes fuzz bytes into a width (0..3, or 9) and a sequence
// of insert/delete/lookup operations over a small domain, so keys repeat
// and chains collide, and checks every step against the map reference.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 0, 3, 2, 1, 0}, uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 1, 1, 1, 0, 2, 2}, uint8(4))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, widthByte uint8) {
		width := []int{0, 1, 2, 3, 9}[widthByte%5]
		var tab KeyTable
		tab.Reset(width)
		ref := newKeyRef()
		key := make([]int64, width)
		for len(raw) > 0 {
			op := raw[0] % 3
			raw = raw[1:]
			for a := range key {
				if len(raw) > 0 {
					key[a] = int64(raw[0] % 8)
					raw = raw[1:]
				}
			}
			switch op {
			case 0:
				e, added := tab.Insert(key)
				if we, wadded := ref.insert(key); e != we || added != wadded {
					t.Fatalf("Insert(%v) = %d, %v; reference %d, %v", key, e, added, we, wadded)
				}
			case 1:
				if tab.Len() > 0 {
					e := 0
					if width > 0 {
						e = int(key[0]) % tab.Len()
					}
					if moved, want := tab.Delete(e), ref.delete(e); moved != want {
						t.Fatalf("Delete(%d) moved %d, want %d", e, moved, want)
					}
				}
			case 2:
				we, ok := ref.pos[Tuple(key).Key()]
				if !ok {
					we = -1
				}
				if got := tab.Lookup(key); got != we {
					t.Fatalf("Lookup(%v) = %d, want %d", key, got, we)
				}
			}
			checkKeyTable(t, &tab, ref)
		}
	})
}
