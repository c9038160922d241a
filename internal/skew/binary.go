package skew

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/mpc"
	"repro/internal/stats"
)

// Binary is one binary join on a shared key, laid out as §4.1 lays out
// q(x,y,z) = S1(x,z), S2(y,z): light keys hash over virtual servers [0, P),
// and every heavy key gets a block of servers of its own. The skew join and
// every multi-round step plan through it; each detects its own heavy keys.
type Binary struct {
	P           int
	Left, Right BinarySide
	// KeySeeds hash a light key, one seed per key column.
	KeySeeds []uint64
	// Heavy lists the heavy keys. A width-0 (cartesian) join has one key,
	// the empty one, and lists it here heavy on both sides.
	Heavy []HeavyKey
}

// BinarySide is one input of a Binary join.
type BinarySide struct {
	Name string // the input's relation name; a self-join routes as Left
	Key  []int  // the key's columns, in one order on both sides
	// Spread are the columns that place a heavy key's row inside its block:
	// one column is hashed as it is, several are folded into one value first.
	Spread []int
	Seed   uint64 // the spread hash's seed
}

// HeavyKey is one heavy key of a Binary join: its values, one per key
// column, its frequency on each side (exact or estimated), and which sides
// reach their heavy threshold. Heavy on both sides is §4.1's H12, on the
// left only H1, on the right only H2.
type HeavyKey struct {
	Key            []int64
	FL, FR         float64
	HeavyL, HeavyR bool
}

// The §4.1 classes of a heavy key, in allocation order.
const (
	classH12 = iota
	classH1
	classH2
)

func (h *HeavyKey) class() int {
	switch {
	case h.HeavyL && h.HeavyR:
		return classH12
	case h.HeavyL:
		return classH1
	}
	return classH2
}

// weight is the key's share of its class's budget: fL·fR for H12, the heavy
// side's frequency otherwise. An estimate below one tuple counts as one.
func (h *HeavyKey) weight() float64 {
	fl, fr := math.Max(1, h.FL), math.Max(1, h.FR)
	switch h.class() {
	case classH12:
		return fl * fr
	case classH1:
		return fl
	}
	return fr
}

// Block is a heavy key's P1×P2 grid of virtual servers from Base on: a left
// row goes to one grid row, copied across the columns, and a right row to
// one grid column, copied down the rows. An H1 key's grid is ph×1 and an H2
// key's 1×ph, so their light side is broadcast over the block.
type Block struct{ Base, P1, P2 int }

// BinaryPlan is a planned Binary join.
type BinaryPlan struct {
	Router  *BinaryRouter
	Virtual int
	// Blocks[i] is the block of Heavy[i], in the order Plan sorted Heavy.
	Blocks []Block
	sums   [3]float64 // each class's budget: Σ weight over its keys
}

// Plan sorts b.Heavy into allocation order — the H12 keys, then H1, then
// H2, each by key — and lays out the virtual servers: [0, P) for the light
// keys (none in a cartesian join), then one block per heavy key, sized from
// its class's own budget as Eq. (10) bounds each class separately. A key of
// weight w in a class of total W gets ph = ⌈P·w/W⌉ servers; an H12 block
// splits them p1 ∝ √(ph·fL/fR) rows by ph/p1 columns.
func (b *Binary) Plan() *BinaryPlan {
	slices.SortFunc(b.Heavy, func(x, y HeavyKey) int {
		if c := cmp.Compare(x.class(), y.class()); c != 0 {
			return c
		}
		return slices.Compare(x.Key, y.Key)
	})
	r := &BinaryRouter{p: b.P, keySeeds: b.KeySeeds}
	// Left binds last, so a self-join routes as Left.
	r.Routes = mpc.Routes{b.Right.Name: &sideRoute{b.Right, 1, r}}
	r.Routes[b.Left.Name] = &sideRoute{b.Left, 0, r}
	bp := &BinaryPlan{Router: r, Blocks: make([]Block, len(b.Heavy))}
	var keys []int64
	for i := range b.Heavy {
		h := &b.Heavy[i]
		bp.sums[h.class()] += h.weight()
		r.classes[h.class()]++
		keys = append(keys, h.Key...)
	}
	next := b.P
	if len(b.Left.Key) == 0 {
		next = 0
	}
	for i := range b.Heavy {
		h := &b.Heavy[i]
		ph := int(math.Ceil(float64(b.P) * h.weight() / bp.sums[h.class()]))
		p1, p2 := ph, 1
		switch h.class() {
		case classH12:
			p1 = min(max(1, int(math.Round(math.Sqrt(float64(ph)*math.Max(1, h.FL)/math.Max(1, h.FR))))), ph)
			p2 = max(1, ph/p1)
		case classH2:
			p1, p2 = 1, ph
		}
		bp.Blocks[i] = Block{next, p1, p2}
		next += p1 * p2
	}
	bp.Virtual = next
	r.blocks = bp.Blocks
	r.heavy = stats.Dictionary(len(b.Left.Key), keys)
	return bp
}

// PredictedTuples is Eq. (10), L = max(mL/p, mR/p, L12, L1, L2) tuples, for
// inputs of mL and mR tuples: each class's budget W spread over p servers
// costs √(W/p).
func (bp *BinaryPlan) PredictedTuples(mL, mR float64) float64 {
	p := float64(bp.Router.p)
	l := math.Max(mL/p, mR/p)
	for _, w := range bp.sums {
		l = math.Max(l, math.Sqrt(w/p))
	}
	return l
}

// BinaryRouter routes a planned Binary join: a light key to its hash over
// [0, p), a heavy key's row to its line of the key's block. It holds only
// plan-time tables, so one instance serves every sender, and its routes read
// the key and spread columns in place. Its Routes bind the left input's
// name to the left side and the right input's to the right side.
type BinaryRouter struct {
	mpc.Routes
	p        int
	keySeeds []uint64
	// heavy turns a heavy key into its index in blocks; nil when no key is
	// heavy (or the join is cartesian), and then no key is probed.
	heavy   *data.GroupIndex
	blocks  []Block
	classes [3]int // heavy keys per class
}

// sideRoute routes one input of the join: s is 0 for the left input, 1 for
// the right.
type sideRoute struct {
	BinarySide
	s int
	r *BinaryRouter
}

// Classes returns how many heavy keys are H1, H2 and H12.
func (r *BinaryRouter) Classes() (h1, h2, h12 int) {
	return r.classes[classH1], r.classes[classH2], r.classes[classH12]
}

// Destinations implements mpc.Route.
//
//skewlint:noalloc
func (sr *sideRoute) Destinations(cols [][]int64, row int, dst []int) []int {
	b := sr.r.blockOf(cols, sr.Key, row)
	if b == nil {
		var light [1]int32
		sr.r.lightServers(cols, sr.Key, row, light[:])
		return append(dst, int(light[0]))
	}
	return b.place(sr.s, sr.Seed, spreadValue(cols, sr.Spread, row), dst)
}

// Servers implements mpc.Route: a light row goes to the one server its key
// hashes to, through lightServers as in Destinations; a heavy row answers -1.
//
//skewlint:noalloc
func (sr *sideRoute) Servers(cols [][]int64, lo, _ int, out []int32) {
	sr.r.lightServers(cols, sr.Key, lo, out)
	if len(sr.Key) == 0 || sr.r.heavy != nil {
		for i := range out {
			if sr.r.blockOf(cols, sr.Key, lo+i) != nil {
				out[i] = -1
			}
		}
	}
}

// blockOf returns the block of the key row carries at the key columns, nil
// for a light key. A cartesian join's one empty key has block 0.
//
//skewlint:noalloc
func (r *BinaryRouter) blockOf(cols [][]int64, key []int, row int) *Block {
	switch {
	case len(key) == 0:
		return &r.blocks[0]
	case r.heavy == nil:
		return nil
	}
	if g := r.heavy.LookupRow(cols, key, row); g >= 0 {
		return &r.blocks[g]
	}
	return nil
}

// lightServers hashes the keys of rows lo, lo+1, … onto [0, p), as if each
// were light, into out: a one-column key by its seed directly, a wider one
// by folding each column's 30-bit hash.
//
//skewlint:noalloc
func (r *BinaryRouter) lightServers(cols [][]int64, key []int, lo int, out []int32) {
	if len(key) == 1 {
		for i, v := range cols[key[0]][lo : lo+len(out)] {
			out[i] = int32(hashing.HashSeeded(r.keySeeds[0], v, r.p))
		}
		return
	}
	for i := range out {
		h := 0
		for j, a := range key {
			h = h*31 + hashing.HashSeeded(r.keySeeds[j], cols[a][lo+i], 1<<30)
		}
		if h < 0 {
			h = -h
		}
		out[i] = int32(h % r.p)
	}
}

// spreadValue is the value that places a heavy key's row inside its block.
func spreadValue(cols [][]int64, spread []int, row int) int64 {
	if len(spread) == 1 {
		return cols[spread[0]][row]
	}
	h := int64(1469598103934665603)
	for _, a := range spread {
		h = (h ^ cols[a][row]) * 1099511628211
	}
	return h
}

// place appends the servers of the line a row with spread value v picks
// under the spread seed: grid row hash(v) for a left row, grid column
// hash(v) for a right one.
//
//skewlint:noalloc
func (b *Block) place(s int, seed uint64, v int64, dst []int) []int {
	if s == 0 {
		i := hashing.HashSeeded(seed, v, b.P1)
		for c := 0; c < b.P2; c++ {
			dst = append(dst, b.Base+i*b.P2+c)
		}
		return dst
	}
	i := hashing.HashSeeded(seed, v, b.P2)
	for rr := 0; rr < b.P1; rr++ {
		dst = append(dst, b.Base+rr*b.P2+i)
	}
	return dst
}

// CompileSpan implements mpc.Route for a run on the key column of an input
// keyed on one column, so that the run's value is its whole key, and
// declines any other run. The key's block is resolved once per run. A light
// run, or a side with one line to pick (the broadcast side of an H1 or H2
// block), compiles to one destination list the engine ships in bulk;
// otherwise each row still hashes its spread, through a closure.
func (sr *sideRoute) CompileSpan(cols [][]int64, attr int, v int64, route *mpc.SpanRoute) bool {
	if len(sr.Key) != 1 || attr != sr.Key[0] {
		return false
	}
	r := sr.r
	key := [1]int64{v}
	g := -1
	if r.heavy != nil {
		g = r.heavy.Lookup(key[:])
	}
	if g < 0 {
		route.Dests = append(route.Dests, hashing.HashSeeded(r.keySeeds[0], v, r.p))
		return true
	}
	s, b := sr.s, r.blocks[g]
	if s == 0 && b.P1 == 1 || s == 1 && b.P2 == 1 {
		route.Dests = b.place(s, 0, 0, route.Dests)
		return true
	}
	route.PerRow = func(row int, dst []int) []int {
		return b.place(s, sr.Seed, spreadValue(cols, sr.Spread, row), dst)
	}
	return true
}
