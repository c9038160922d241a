package data

// KeyTable is GroupIndex's maintained sibling, the hash kernel under the
// write path: a set of fixed-width int64 keys that changes one key at a
// time. Entries are numbered densely in insertion order and their keys sit
// in one flat row-major arena, so callers keep payload in parallel slices;
// Delete moves the last entry into the hole and reports it, so the caller
// moves its payload the same way.
//
// An open-addressing table of int32 slots, hashed with GroupIndex's mixKey,
// maps a key to its entry; lookups compare in place against the arena, so
// any width works, zero included. Deletion shifts later chain members back
// rather than leaving tombstones. Insert, Delete and Lookup are amortized
// O(1) and allocate only when the table outgrows its capacity. The zero
// value is an empty table of width 0; Reset sets the width.
type KeyTable struct {
	width int
	keys  []int64  // entry e's key is keys[e*width : (e+1)*width]
	hash  []uint64 // hash of each entry's key; len is Len()
	slots []int32  // entry + 1; 0 = empty; len is zero or a power of two
}

// Reset empties the table and sets the key width, keeping its capacity.
func (t *KeyTable) Reset(width int) {
	t.width = width
	t.keys = t.keys[:0]
	t.hash = t.hash[:0]
	clear(t.slots)
}

// Len returns the number of entries.
func (t *KeyTable) Len() int { return len(t.hash) }

// Width returns the number of values in every key.
func (t *KeyTable) Width() int { return t.width }

// Key returns entry e's key. The slice aliases the arena (capacity clamped,
// so an append cannot reach the next key): read-only, and valid until the
// next Insert or Delete.
func (t *KeyTable) Key(e int) []int64 {
	return t.keys[e*t.width : (e+1)*t.width : (e+1)*t.width]
}

func hashKey(key []int64) uint64 {
	var h uint64
	for _, v := range key {
		h = mixKey(h, v)
	}
	return h
}

// Lookup returns the entry holding key (Width values), or -1.
//
//skewlint:noalloc
func (t *KeyTable) Lookup(key []int64) int {
	if len(t.hash) == 0 {
		return -1
	}
	return t.find(key, hashKey(key))
}

func (t *KeyTable) find(key []int64, h uint64) int {
	mask := uint32(len(t.slots) - 1)
probe:
	for s := uint32(h) & mask; ; s = (s + 1) & mask {
		e := int(t.slots[s]) - 1
		if e < 0 {
			return -1
		}
		if t.hash[e] != h {
			continue
		}
		stored := t.keys[e*t.width : (e+1)*t.width]
		for i, v := range key {
			if stored[i] != v {
				continue probe
			}
		}
		return e
	}
}

// Insert returns the entry holding key, adding it as entry Len() when
// absent; added reports which. The key is copied into the arena.
func (t *KeyTable) Insert(key []int64) (e int, added bool) {
	if len(key) != t.width {
		panic("data: KeyTable.Insert: key width does not match the table's")
	}
	h := hashKey(key)
	if len(t.hash) > 0 {
		if e := t.find(key, h); e >= 0 {
			return e, false
		}
	}
	if 2*(len(t.hash)+1) > len(t.slots) {
		t.grow()
	}
	e = len(t.hash)
	t.hash = append(t.hash, h)
	t.keys = append(t.keys, key...)
	t.place(e)
	return e, true
}

// place puts entry e into the first free slot of its probe chain.
func (t *KeyTable) place(e int) {
	mask := uint32(len(t.slots) - 1)
	s := uint32(t.hash[e]) & mask
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = int32(e + 1)
}

// grow doubles the slot table (8 at first) and re-places every entry.
func (t *KeyTable) grow() {
	t.slots = make([]int32, max(8, 2*len(t.slots)))
	for e := range t.hash {
		t.place(e)
	}
}

// slotOf returns the slot holding entry e, which must exist.
func (t *KeyTable) slotOf(e int) uint32 {
	mask := uint32(len(t.slots) - 1)
	s := uint32(t.hash[e]) & mask
	for int(t.slots[s]) != e+1 {
		s = (s + 1) & mask
	}
	return s
}

// Delete removes entry e and moves the last entry into its place. It
// returns the moved entry's old number, which is the new Len() (and equals
// e when e was the last entry, so nothing moved). Callers mirror the move in
// their payload: p[e] = p[moved]; p = p[:moved].
func (t *KeyTable) Delete(e int) (moved int) {
	mask := uint32(len(t.slots) - 1)
	// Backward-shift deletion: walk the chain past the hole and pull back
	// every entry whose home slot does not lie cyclically in (hole, j].
	hole := t.slotOf(e)
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := uint32(t.hash[t.slots[j]-1]) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0

	last := len(t.hash) - 1
	if e != last {
		t.slots[t.slotOf(last)] = int32(e + 1)
		t.hash[e] = t.hash[last]
		copy(t.keys[e*t.width:(e+1)*t.width], t.keys[last*t.width:])
	}
	t.hash = t.hash[:last]
	t.keys = t.keys[:last*t.width]
	return last
}
