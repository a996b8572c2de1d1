package bench

import (
	"math/rand"
	"testing"
)

// TestScatteredQueries: the scattered scan family must cycle over distinct
// boxes that constrain only its predicate columns, each with a two-sided
// range, and match about the target fraction of rows.
func TestScatteredQueries(t *testing.T) {
	data := tinyConfig().tpch()
	dom := data.Domain()
	n := data.NumRows()
	for _, sel := range scanSelectivities["scattered"] {
		qs := scatteredQueries(data, sel, rand.New(rand.NewSource(1)))
		if len(qs) != scatteredBoxes {
			t.Fatalf("sel %v: %d boxes, want %d", sel, len(qs), scatteredBoxes)
		}
		seen := make(map[[2]float64]bool)
		matched := 0
		for _, q := range qs {
			for d := range q.Lo {
				full := q.Lo[d] == dom.Lo[d] && q.Hi[d] == dom.Hi[d]
				pred := d == scatteredDims[0] || d == scatteredDims[1]
				if !pred && !full {
					t.Fatalf("sel %v: constrains non-predicate dim %d", sel, d)
				}
				// At 90% a box may span a discrete column's whole domain.
				if pred && full && sel < 0.9 {
					t.Fatalf("sel %v: leaves predicate dim %d unconstrained", sel, d)
				}
			}
			seen[[2]float64{q.Lo[scatteredDims[0]], q.Lo[scatteredDims[1]]}] = true
			matched += data.CountInBox(q, nil)
		}
		if len(seen) < scatteredBoxes/2 {
			t.Errorf("sel %v: only %d distinct boxes", sel, len(seen))
		}
		if got := float64(matched) / float64(len(qs)*n); got < 0.5*sel || got > 1.5*sel {
			t.Errorf("sel %v: boxes match %.4f of the rows on average", sel, got)
		}
	}
}
