package blockstore

import (
	"math"
	"math/rand"
	"testing"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/parbuild"
)

// FuzzMaterializeDifferential materialises fuzzed small datasets (±Inf
// values and ties included) under fuzzed k-d layouts and checks the store
// against the dataset: every routed row is stored exactly once, in the
// partition routing assigns it, and Count over the stored partitions
// equals CountInBox on fuzzed boxes.
func FuzzMaterializeDifferential(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(2), uint8(20), uint8(16), int64(2))
	f.Add(int64(7), uint16(2000), uint8(1), uint8(150), uint8(64), int64(5))
	f.Add(int64(-4), uint16(900), uint8(8), uint8(40), uint8(7), int64(9))
	f.Add(int64(99), uint16(1), uint8(9), uint8(1), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, seed int64, rowsRaw uint16, dimsRaw uint8, minRaw, groupRaw uint8, qseed int64) {
		rows := 1 + int(rowsRaw)%2500
		dims := 1 + int(dimsRaw)%9
		data, finite := specialData(seed, rows, dims, false)
		if len(finite) == 0 {
			finite = []int{0}
		}
		l := unboundedLayout(data, finite, 1+int(minRaw))
		s := materialize(l, data, Config{GroupRows: 1 + int(groupRaw)}, parbuild.New(2))

		byPart := l.RouteIndices(data, allRows(rows))
		ids := make([]layout.ID, len(l.Parts))
		stored := 0
		for i, p := range l.Parts {
			ids[i] = p.ID
			sp, err := s.Partition(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			got := rowKeys(tablePoints(sp.Table))
			want := make([]geom.Point, len(byPart[p.ID]))
			for k, r := range byPart[p.ID] {
				want[k] = data.Point(r)
			}
			wk := rowKeys(want)
			if len(got) != len(wk) || int64(len(got)) != p.FullRows {
				t.Fatalf("partition %d: stores %d rows, routing assigns %d, FullRows %d", p.ID, len(got), len(wk), p.FullRows)
			}
			for k := range got {
				if got[k] != wk[k] {
					t.Fatalf("partition %d: stored rows differ from the routed rows", p.ID)
				}
			}
			stored += len(got)
		}
		if int64(stored)+l.Unrouted != int64(rows) {
			t.Fatalf("stored %d + unrouted %d of %d rows", stored, l.Unrouted, rows)
		}

		rng := rand.New(rand.NewSource(qseed))
		for i := 0; i < 8; i++ {
			q := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
			for d := 0; d < dims; d++ {
				a, b := rng.Float64()*110-5, rng.Float64()*110-5
				q.Lo[d], q.Hi[d] = min(a, b), max(a, b)
				switch rng.Intn(8) {
				case 0:
					q.Lo[d] = math.Inf(-1)
				case 1:
					q.Hi[d] = math.Inf(1)
				case 2: // a point on a stored value
					v := data.At(rng.Intn(rows), d)
					q.Lo[d], q.Hi[d] = v, v
				}
			}
			st, err := s.ScanAll(ids, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := data.CountInBox(q, nil); st.Matched != want {
				t.Fatalf("box %v: store counts %d, dataset %d", q, st.Matched, want)
			}
		}
	})
}
