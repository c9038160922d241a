package data_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/stats"
)

// fuzzSchema is FuzzApplyDelta's database: two relations over a domain
// small enough that duplicate inserts and absent deletes are common.
var fuzzSchema = []struct {
	name  string
	arity int
}{{"R", 2}, {"S", 1}}

const fuzzDomain = 8

// replay is the map-based reference: per relation, the set of its tuples.
type replay map[string]map[string][]int64

func (m replay) clone() replay {
	out := replay{}
	for name, set := range m {
		out[name] = map[string][]int64{}
		for k, vals := range set {
			out[name][k] = vals
		}
	}
	return out
}

// apply replays one operation and reports why it is invalid, if it is.
func (m replay) apply(rel string, vals []int64, insert bool) string {
	set, ok := m[rel]
	if !ok {
		return "unknown relation"
	}
	for _, s := range fuzzSchema {
		if s.name == rel && len(vals) != s.arity {
			return "wrong arity"
		}
	}
	key := fmt.Sprint(vals)
	_, present := set[key]
	switch {
	case insert && slices.ContainsFunc(vals, func(v int64) bool { return v < 0 || v >= fuzzDomain }):
		return "insert outside the domain"
	case insert && present:
		return "duplicate insert"
	case !insert && !present:
		return "delete of an absent tuple"
	case insert:
		set[key] = vals
	default:
		delete(set, key)
	}
	return ""
}

// database builds a fresh database holding the replay's contents.
func (m replay) database() *data.Database {
	db := data.NewDatabase()
	for _, s := range fuzzSchema {
		r := data.NewRelation(s.name, s.arity, fuzzDomain)
		for _, vals := range m[s.name] {
			r.Add(vals...)
		}
		db.Put(r)
	}
	return db
}

// sameContents reports whether db's relations hold exactly the replay's
// tuples.
func sameContents(db *data.Database, m replay) bool {
	for _, s := range fuzzSchema {
		r := db.MustGet(s.name)
		if r.Size() != len(m[s.name]) {
			return false
		}
		for i := 0; i < r.Size(); i++ {
			if _, ok := m[s.name][fmt.Sprint([]int64(r.Tuple(i)))]; !ok {
				return false
			}
		}
	}
	return true
}

// FuzzApplyDelta drives Database.Apply with random op streams over a
// two-relation database — valid ops mixed with unknown relations, wrong
// arities, out-of-domain inserts, duplicate inserts, absent deletes and
// deletes of tuples the same delta inserted — against a map-based replay:
// Apply fails exactly when the replay meets an invalid op; a failed Apply
// leaves the contents, stats.Fingerprint and the version as they were, and
// a successful one leaves the replay's contents.
//
// Each op is a control byte — bits 0–1: end the delta, R, S or the unknown
// T; bit 2: insert; bits 3–5 all zero: one value too many — then one byte
// per value: b%9, where 8 is outside the domain, or -1 for 255.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0x05, 1, 2, 0x01, 1, 2, 0x00, 0x06, 3, 0x06, 3})
	f.Add([]byte{0x05, 1, 2, 0x02, 9, 0x07, 0, 0x0d, 8, 8, 0x00, 0x0e, 255})
	f.Add([]byte{0x09, 0, 1, 0x0d, 4, 5, 0x00, 0x0a, 4, 0x05, 1, 1, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		model := replay{"R": {}, "S": {}}
		db := model.database()
		for len(raw) > 0 {
			d := new(data.Delta)
			next, invalid := model.clone(), ""
			for len(raw) > 0 {
				ctl := raw[0]
				raw = raw[1:]
				rel := [...]string{"", "R", "S", "T"}[ctl&3]
				if rel == "" {
					break
				}
				arity := 1
				if rel == "R" {
					arity = 2
				}
				if ctl&0x38 == 0 {
					arity++
				}
				vals := make([]int64, 0, arity)
				for ; arity > 0 && len(raw) > 0; arity-- {
					v := int64(raw[0] % 9)
					if raw[0] == 255 {
						v = -1
					}
					vals = append(vals, v)
					raw = raw[1:]
				}
				insert := ctl&4 != 0
				if insert {
					d.Insert(rel, vals...)
				} else {
					d.Delete(rel, vals...)
				}
				if invalid == "" {
					invalid = next.apply(rel, vals, insert)
				}
			}
			fp, version := stats.Fingerprint(db), db.Version()
			err := db.Apply(d)
			if (err != nil) != (invalid != "") {
				t.Fatalf("Apply = %v, but the replay found %q", err, invalid)
			}
			if err != nil {
				if !sameContents(db, model) || stats.Fingerprint(db) != fp || db.Version() != version {
					t.Fatalf("rejected delta (%v) changed the database", err)
				}
				continue
			}
			model = next
			if !sameContents(db, model) {
				t.Fatal("contents differ from the replay")
			}
			if got, want := stats.Fingerprint(db), stats.Fingerprint(model.database()); got != want {
				t.Fatalf("Fingerprint %x, want the replayed database's %x", got, want)
			}
			if d.Len() > 0 && db.Version() != version+1 {
				t.Fatalf("version %d after a successful Apply, want %d", db.Version(), version+1)
			}
		}
	})
}
