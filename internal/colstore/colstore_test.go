package colstore

import (
	"bytes"
	"math"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/workload"
)

func TestFromDatasetShape(t *testing.T) {
	data := dataset.Uniform(1000, 3, 1)
	tab := FromDataset(data, nil, 128)
	if tab.NumRows() != 1000 || tab.Dims() != 3 {
		t.Fatalf("rows=%d dims=%d", tab.NumRows(), tab.Dims())
	}
	if got := tab.NumGroups(); got != 8 { // ceil(1000/128)
		t.Errorf("groups = %d, want 8", got)
	}
	if tab.Bytes() != 1000*3*dataset.BytesPerAttribute {
		t.Errorf("Bytes = %d", tab.Bytes())
	}
	// Default group size kicks in for invalid input.
	tab = FromDataset(data, nil, 0)
	if tab.NumGroups() != 1 {
		t.Errorf("default group size should hold all 1000 rows in one group, got %d", tab.NumGroups())
	}
}

func TestScanMatchesBruteForce(t *testing.T) {
	data := dataset.Uniform(5000, 2, 2)
	tab := FromDataset(data, nil, 256)
	w := workload.Uniform(data.Domain(), workload.Defaults(40, 3))
	for _, q := range w.Boxes() {
		pts, st := tab.Scan(q)
		want := data.CountInBox(q, nil)
		if st.Matched != want || len(pts) != want {
			t.Fatalf("Scan(%v) matched %d, want %d", q, st.Matched, want)
		}
		for _, p := range pts {
			if !q.Contains(p) {
				t.Fatalf("returned point %v outside query %v", p, q)
			}
		}
		cst := tab.Count(q)
		if cst.Matched != want {
			t.Fatalf("Count disagrees with Scan: %+v vs %+v", cst, st)
		}
		// Scan materialises covered columns that Count never decodes, so its
		// BytesRead may only exceed Count's.
		if cst.BytesRead > st.BytesRead {
			t.Fatalf("Count read %d bytes > Scan's %d", cst.BytesRead, st.BytesRead)
		}
	}
}

func TestRowGroupPruning(t *testing.T) {
	// Sorted data gives perfectly clustered row groups, so narrow queries
	// prune most groups.
	n := 10000
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i)
	}
	data := dataset.MustNew([]string{"x"}, [][]float64{col})
	tab := FromDataset(data, nil, 500) // 20 groups
	q := geom.Box{Lo: geom.Point{1000}, Hi: geom.Point{1499}}
	_, st := tab.Scan(q)
	if st.Matched != 500 {
		t.Errorf("matched %d, want 500", st.Matched)
	}
	if st.GroupsRead > 2 {
		t.Errorf("read %d groups, want <= 2 (pruning broken)", st.GroupsRead)
	}
	if st.GroupsSkipped < 18 {
		t.Errorf("skipped only %d groups", st.GroupsSkipped)
	}
	// Byte accounting: every encoded byte is either decoded or proven
	// skippable, and pruning plus encoding must beat a full decode.
	if st.BytesRead+st.BytesSkipped != tab.EncodedBytes() {
		t.Errorf("BytesRead %d + BytesSkipped %d != EncodedBytes %d",
			st.BytesRead, st.BytesSkipped, tab.EncodedBytes())
	}
	nst := tab.CountNaive(q)
	if st.BytesRead > nst.BytesRead {
		t.Errorf("vectorized scan read %d bytes, naive read %d", st.BytesRead, nst.BytesRead)
	}
	if nst.Matched != st.Matched {
		t.Errorf("naive matched %d, vectorized %d", nst.Matched, st.Matched)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := dataset.TPCHLike(800, 4)
	tab := FromDataset(data, nil, 100)
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() || got.NumGroups() != tab.NumGroups() || got.Dims() != tab.Dims() {
		t.Fatalf("shape mismatch after round trip: %d/%d/%d", got.NumRows(), got.NumGroups(), got.Dims())
	}
	for i, n := range tab.Names() {
		if got.Names()[i] != n {
			t.Errorf("name %d = %q", i, got.Names()[i])
		}
	}
	// Scans must agree exactly.
	w := workload.Uniform(data.Domain(), workload.Defaults(20, 5))
	for _, q := range w.Boxes() {
		_, s1 := tab.Scan(q)
		_, s2 := got.Scan(q)
		if s1 != s2 {
			t.Fatalf("scan stats diverge after round trip: %+v vs %+v", s1, s2)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{0, 1, 2, 3, 4, 5, 6, 7})); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
	data := dataset.Uniform(100, 2, 6)
	tab := FromDataset(data, nil, 10)
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Error("truncated input must error")
	}
}

func TestFromDatasetSubset(t *testing.T) {
	data := dataset.Uniform(100, 2, 7)
	tab := FromDataset(data, []int{1, 3, 5, 7}, 2)
	if tab.NumRows() != 4 || tab.NumGroups() != 2 {
		t.Errorf("rows=%d groups=%d", tab.NumRows(), tab.NumGroups())
	}
	_, st := tab.Scan(data.Domain())
	if st.Matched != 4 {
		t.Errorf("matched %d", st.Matched)
	}
}

// TestNaNRoundTrips: a chunk holding NaN among few distinct values would
// be cheapest as a dictionary, but NaN has no place in the code search, so
// the chunk must take another encoding and decode every value bit-exactly.
func TestNaNRoundTrips(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i%3) + 0.5
		if i%7 == 0 {
			vals[i] = math.NaN()
		}
	}
	tab := FromDataset(dataset.MustNew([]string{"x"}, [][]float64{vals}), nil, len(vals))
	if got := tab.EncodingCounts(); got["dict"] != 0 {
		t.Fatalf("NaN chunk dictionary-encoded: %v", got)
	}
	for i, p := range tab.GroupPoints(0) {
		if math.Float64bits(p[0]) != math.Float64bits(vals[i]) {
			t.Fatalf("row %d decodes as %v, stored %v", i, p[0], vals[i])
		}
	}
}
