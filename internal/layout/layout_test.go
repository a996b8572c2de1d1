package layout

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

func box2(l0, l1, h0, h1 float64) geom.Box {
	return geom.Box{Lo: geom.Point{l0, l1}, Hi: geom.Point{h0, h1}}
}

// grid4 builds a 2x2 rectangular layout over [0,10]^2 with a tiny dataset.
func grid4(t *testing.T) (*Layout, *dataset.Dataset) {
	t.Helper()
	// 8 records, 2 per quadrant.
	xs := []float64{1, 2, 6, 7, 1, 2, 6, 7}
	ys := []float64{1, 2, 1, 2, 6, 7, 6, 7}
	data := dataset.MustNew([]string{"x", "y"}, [][]float64{xs, ys})

	mk := func(b geom.Box) *Node {
		return &Node{Desc: NewRect(b), Part: &Partition{Desc: NewRect(b)}}
	}
	root := &Node{Desc: NewRect(box2(0, 0, 10, 10))}
	left := &Node{Desc: NewRect(box2(0, 0, 5, 10)), Children: []*Node{
		mk(box2(0, 0, 5, 5)), mk(box2(0, 5, 5, 10)),
	}}
	right := &Node{Desc: NewRect(box2(5, 0, 10, 10)), Children: []*Node{
		mk(box2(5, 0, 10, 5)), mk(box2(5, 5, 10, 10)),
	}}
	root.Children = []*Node{left, right}
	l := Seal("test", root, data.RowBytes())
	l.Route(data)
	return l, data
}

func TestSealAssignsIDs(t *testing.T) {
	l, _ := grid4(t)
	if l.NumPartitions() != 4 {
		t.Fatalf("partitions = %d, want 4", l.NumPartitions())
	}
	for i, p := range l.Parts {
		if int(p.ID) != i {
			t.Errorf("partition %d has ID %d", i, p.ID)
		}
		if p.RowBytes != 32 {
			t.Errorf("RowBytes = %d", p.RowBytes)
		}
	}
}

func TestRouteCounts(t *testing.T) {
	l, data := grid4(t)
	if l.Unrouted != 0 {
		t.Fatalf("unrouted = %d", l.Unrouted)
	}
	var sum int64
	for _, p := range l.Parts {
		if p.FullRows != 2 {
			t.Errorf("partition %d rows = %d, want 2", p.ID, p.FullRows)
		}
		sum += p.FullRows
	}
	if sum != int64(data.NumRows()) {
		t.Errorf("routed %d of %d", sum, data.NumRows())
	}
	if l.TotalBytes != data.TotalBytes() {
		t.Errorf("TotalBytes = %d, want %d", l.TotalBytes, data.TotalBytes())
	}
}

func TestQueryCost(t *testing.T) {
	l, _ := grid4(t)
	partBytes := int64(2 * 32)
	cases := []struct {
		q    geom.Box
		want int64
	}{
		{box2(1, 1, 2, 2), partBytes},     // one quadrant
		{box2(1, 1, 7, 2), 2 * partBytes}, // two quadrants
		{box2(1, 1, 7, 7), 4 * partBytes}, // all
		{box2(11, 11, 12, 12), 0},         // outside
	}
	for _, c := range cases {
		if got := l.QueryCost(c.q, nil); got != c.want {
			t.Errorf("QueryCost(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestWorkloadCostAndScanRatio(t *testing.T) {
	l, _ := grid4(t)
	qs := []geom.Box{box2(1, 1, 2, 2), box2(1, 1, 7, 7)}
	if got := l.WorkloadCost(qs, nil); got != 64+256 {
		t.Errorf("WorkloadCost = %d", got)
	}
	if got := l.AvgCost(qs, nil); got != 160 {
		t.Errorf("AvgCost = %v", got)
	}
	if got := l.ScanRatio(qs, nil); got != 160.0/256 {
		t.Errorf("ScanRatio = %v", got)
	}
	if l.AvgCost(nil, nil) != 0 {
		t.Error("empty workload cost must be 0")
	}
}

func TestLowerBound(t *testing.T) {
	_, data := grid4(t)
	q := box2(0, 0, 5, 5) // 2 records
	if got := LowerBoundBytes(data, q); got != 64 {
		t.Errorf("LowerBoundBytes = %d, want 64", got)
	}
	r := LowerBoundRatio(data, []geom.Box{q})
	if r != 64.0/256 {
		t.Errorf("LowerBoundRatio = %v", r)
	}
}

func TestCostDominatesLB(t *testing.T) {
	l, data := grid4(t)
	qs := []geom.Box{box2(0, 0, 3, 3), box2(1, 1, 9, 9), box2(4, 4, 6, 6)}
	if err := l.CheckCostDominatesLB(data, qs); err != nil {
		t.Error(err)
	}
}

func TestPartitionsFor(t *testing.T) {
	l, _ := grid4(t)
	ids := l.PartitionsFor(box2(1, 1, 7, 2))
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Errorf("PartitionsFor = %v", ids)
	}
}

func TestIrregularDescriptor(t *testing.T) {
	outer := box2(0, 0, 10, 10)
	hole := box2(4, 4, 6, 6)
	ir := NewIrregular(outer, []geom.Box{hole})
	if ir.Kind() != KindIrregular {
		t.Error("kind")
	}
	if !ir.MBR().Equal(outer) {
		t.Error("MBR must be the outer box")
	}
	if ir.Intersects(box2(4.5, 4.5, 5.5, 5.5)) {
		t.Error("query strictly inside the hole must not intersect")
	}
	if !ir.Intersects(box2(1, 1, 2, 2)) {
		t.Error("query in the frame must intersect")
	}
	if ir.Contains(geom.Point{5, 5}) {
		t.Error("hole interior must not be contained")
	}
	if !ir.Contains(geom.Point{1, 1}) {
		t.Error("frame point must be contained")
	}
}

func TestIrregularRoutingOrder(t *testing.T) {
	// A multi-group-style node: GP = [4,4]-[6,6] carved out of [0,10]^2.
	outer := box2(0, 0, 10, 10)
	gpBox := box2(4, 4, 6, 6)
	gp := &Node{Desc: NewRect(gpBox), Part: &Partition{Desc: NewRect(gpBox)}}
	ipDesc := NewIrregular(outer, []geom.Box{gpBox})
	ip := &Node{Desc: ipDesc, Part: &Partition{Desc: ipDesc}}
	root := &Node{Desc: NewRect(outer), Children: []*Node{gp, ip}}

	xs := []float64{5, 1, 4, 9} // 5,5 in GP; 4,4 on GP boundary -> GP (first match)
	ys := []float64{5, 1, 4, 9}
	data := dataset.MustNew([]string{"x", "y"}, [][]float64{xs, ys})
	l := Seal("test", root, data.RowBytes())
	l.Route(data)
	if l.Unrouted != 0 {
		t.Fatalf("unrouted = %d", l.Unrouted)
	}
	if l.Parts[0].FullRows != 2 { // (5,5) and boundary (4,4)
		t.Errorf("GP rows = %d, want 2", l.Parts[0].FullRows)
	}
	if l.Parts[1].FullRows != 2 {
		t.Errorf("IP rows = %d, want 2", l.Parts[1].FullRows)
	}
	// A query inside the GP must cost only the GP.
	if got := l.QueryCost(box2(4.5, 4.5, 5.5, 5.5), nil); got != l.Parts[0].Bytes() {
		t.Errorf("query inside GP cost = %d, want %d", got, l.Parts[0].Bytes())
	}
}

func TestPreciseDescriptorPruning(t *testing.T) {
	l, _ := grid4(t)
	// Partition 0 holds (1,1),(2,2); give it a tight precise descriptor.
	l.Parts[0].Precise = []geom.Box{box2(1, 1, 2, 2)}
	// Query hits the empty corner of quadrant 0 — pruned by precise MBRs.
	q := box2(3, 3, 4, 4)
	if got := l.QueryCost(q, nil); got != 0 {
		t.Errorf("cost with precise pruning = %d, want 0", got)
	}
	// Query overlapping the records is still charged.
	q = box2(1.5, 1.5, 4, 4)
	if got := l.QueryCost(q, nil); got != l.Parts[0].Bytes() {
		t.Errorf("cost = %d, want %d", got, l.Parts[0].Bytes())
	}
}

func TestExtras(t *testing.T) {
	l, _ := grid4(t)
	extras := Extras{{Box: box2(0, 0, 3, 3), FullRows: 2, RowBytes: 32}}
	// Query inside the extra partition: answered from the copy.
	if got := l.QueryCost(box2(1, 1, 2, 2), extras); got != 64 {
		t.Errorf("cost = %d, want 64", got)
	}
	// Query not contained in the extra: normal path.
	if got := l.QueryCost(box2(1, 1, 7, 2), extras); got != 128 {
		t.Errorf("cost = %d, want 128", got)
	}
	// Cheapest covering extra wins.
	extras = append(extras, Extra{Box: box2(0, 0, 4, 4), FullRows: 1, RowBytes: 32})
	if got := l.QueryCost(box2(1, 1, 2, 2), extras); got != 32 {
		t.Errorf("cost = %d, want 32 (cheapest extra)", got)
	}
}

func TestValidate(t *testing.T) {
	l, data := grid4(t)
	if err := l.Validate(data, 2); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
	if err := l.Validate(data, 3); err == nil {
		t.Error("bmin=3 must be violated by 2-row partitions")
	}
}

func TestRouteIndices(t *testing.T) {
	l, data := grid4(t)
	m := l.RouteIndices(data, []int{0, 1, 4})
	if len(m[0]) != 2 {
		t.Errorf("partition 0 got %v", m[0])
	}
	if len(m[1]) != 1 {
		t.Errorf("partition 1 got %v", m[1])
	}
}

func TestUnroutedDetection(t *testing.T) {
	// A root whose children do not cover the domain.
	b := box2(0, 0, 4, 4)
	leaf := &Node{Desc: NewRect(b), Part: &Partition{Desc: NewRect(b)}}
	root := &Node{Desc: NewRect(box2(0, 0, 10, 10)), Children: []*Node{leaf}}
	data := dataset.MustNew([]string{"x", "y"}, [][]float64{{1, 9}, {1, 9}})
	l := Seal("test", root, data.RowBytes())
	l.Route(data)
	if l.Unrouted != 1 {
		t.Errorf("unrouted = %d, want 1", l.Unrouted)
	}
	if err := l.Validate(data, 0); err == nil {
		t.Error("Validate must fail on unrouted records")
	}
}

func TestRouteParallelMatchesSerial(t *testing.T) {
	// Large enough to take the parallel path; the last rows fall outside
	// the root and stay unrouted.
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%100) / 10
		ys[i] = float64(i%97) / 9.7
	}
	for i := n - 5; i < n; i++ {
		xs[i] = 20
	}
	data := dataset.MustNew([]string{"x", "y"}, [][]float64{xs, ys})
	mk := func(b geom.Box) *Node {
		return &Node{Desc: NewRect(b), Part: &Partition{Desc: NewRect(b)}}
	}
	root := &Node{Desc: NewRect(box2(0, 0, 10, 10)), Children: []*Node{
		mk(box2(0, 0, 5, 5)), mk(box2(0, 5, 5, 10)),
		mk(box2(5, 0, 10, 5)), mk(box2(5, 5, 10, 10)),
	}}
	l := Seal("test", root, data.RowBytes())
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// The subset router is the per-row oracle.
	want := l.RouteIndices(data, all)

	for _, workers := range []int{1, 2, 4, 7} {
		rt := l.RouteParallel(data, workers)
		if l.Unrouted != 5 || rt.Unrouted != 5 {
			t.Fatalf("workers=%d: unrouted %d/%d, want 5", workers, l.Unrouted, rt.Unrouted)
		}
		for i := n - 5; i < n; i++ {
			if rt.Part[i] != -1 {
				t.Fatalf("workers=%d: row %d outside the root routed to %d", workers, i, rt.Part[i])
			}
		}
		rows, start := rt.Buckets()
		for i, p := range l.Parts {
			got := rows[start[i]:start[i+1]]
			if p.FullRows != int64(len(want[p.ID])) || rt.Counts[i] != p.FullRows || len(got) != len(want[p.ID]) {
				t.Fatalf("workers=%d partition %d: FullRows %d, counts %d, bucket %d, want %d",
					workers, i, p.FullRows, rt.Counts[i], len(got), len(want[p.ID]))
			}
			for k, r := range got {
				if r != want[p.ID][k] || rt.Part[r] != int32(p.ID) {
					t.Fatalf("workers=%d partition %d: bucket row %d is %d, want %d", workers, i, k, r, want[p.ID][k])
				}
			}
		}
		if l.TotalBytes != data.TotalBytes() {
			t.Fatalf("TotalBytes = %d", l.TotalBytes)
		}
	}
	// Small inputs run on one goroutine.
	small := dataset.MustNew([]string{"x", "y"}, [][]float64{{1}, {1}})
	l.RouteParallel(small, 8)
	var sum int64
	for _, p := range l.Parts {
		sum += p.FullRows
	}
	if sum != 1 {
		t.Errorf("small input routed %d rows", sum)
	}
}

func TestKindString(t *testing.T) {
	if KindRect.String() != "rect" || KindIrregular.String() != "irregular" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
}
