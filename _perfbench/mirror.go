package main

import (
	"fmt"
	"slices"

	"segidx"
)

// mirror is the benchmark's own copy of the live records. Answers are
// computed from it by a brute-force scan, apart from any index code, and
// compared with the index's by record-ID set: a stab sidecar reports whole
// rectangles where the tree may report cut portions, so rectangles differ
// while ID sets must not.
type mirror struct {
	recs map[segidx.RecordID]segidx.Rect
}

func newMirror() *mirror { return &mirror{recs: make(map[segidx.RecordID]segidx.Rect)} }

func (m *mirror) insert(id segidx.RecordID, r segidx.Rect) { m.recs[id] = r }

func (m *mirror) remove(id segidx.RecordID) { delete(m.recs, id) }

func (m *mirror) clone() *mirror {
	c := newMirror()
	for id, r := range m.recs {
		c.recs[id] = r
	}
	return c
}

// search returns the sorted IDs of records intersecting q (closed bounds).
func (m *mirror) search(q segidx.Rect) []uint64 {
	var out []uint64
	for id, r := range m.recs {
		hit := true
		for d := range r.Min {
			if r.Max[d] < q.Min[d] || r.Min[d] > q.Max[d] {
				hit = false
				break
			}
		}
		if hit {
			out = append(out, uint64(id))
		}
	}
	slices.Sort(out)
	return out
}

// stab returns the sorted IDs of records containing the point p.
func (m *mirror) stab(p []float64) []uint64 {
	return m.search(segidx.Rect{Min: p, Max: p})
}

// idSet returns the sorted IDs of entries, failing on a duplicate: every
// query API returns each logical record once.
func idSet(es []segidx.Entry) ([]uint64, error) {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = uint64(e.ID)
	}
	slices.Sort(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("record %d reported twice", out[i])
		}
	}
	return out, nil
}

// sameIDs compares an index answer with the mirror's for query q.
func sameIDs(what string, q segidx.Rect, got []segidx.Entry, want []uint64) error {
	ids, err := idSet(got)
	if err != nil {
		return fmt.Errorf("%s %v: %w", what, q, err)
	}
	if !slices.Equal(ids, want) {
		return fmt.Errorf("%s %v: index returned %d records, mirror %d", what, q, len(ids), len(want))
	}
	return nil
}
