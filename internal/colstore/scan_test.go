package colstore

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/parbuild"
	"paw/internal/workload"
)

// benchTable builds a moderately sized table with a mix of encodings
// (TPC-H stand-in: discrete + continuous columns).
func benchTable(rows int) (*dataset.Dataset, *Table) {
	data := dataset.TPCHLike(rows, 7).Project(4).Normalize()
	return data, FromDataset(data, nil, 1024)
}

func TestScannerSteadyStateAllocs(t *testing.T) {
	data, tab := benchTable(20000)
	q := data.Domain()
	q.Lo[0], q.Hi[0] = 0.2, 0.6
	q.Lo[1], q.Hi[1] = 0.1, 0.8
	sc := NewScanner()
	sc.Count(tab, q)
	sc.Scan(tab, q)
	if n := testing.AllocsPerRun(50, func() { sc.Count(tab, q) }); n != 0 {
		t.Errorf("Count allocates %v/op in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { sc.Scan(tab, q) }); n != 0 {
		t.Errorf("Scan allocates %v/op in steady state, want 0", n)
	}
}

func TestCountParallelMatchesSerial(t *testing.T) {
	data, tab := benchTable(30000)
	w := workload.Uniform(data.Domain(), workload.Defaults(30, 9))
	var sp ScannerPool
	sc := NewScanner()
	for _, workers := range []int{1, 2, 4, 8} {
		pool := parbuild.New(workers)
		for _, q := range w.Boxes() {
			serial := sc.Count(tab, q)
			par := tab.CountParallel(q, pool, &sp)
			if par != serial {
				t.Fatalf("workers=%d: parallel stats %+v != serial %+v", workers, par, serial)
			}
		}
	}
	// A nil pool and nil scanner pool must degrade cleanly.
	q := w.Boxes()[0]
	if got := tab.CountParallel(q, nil, nil); got != sc.Count(tab, q) {
		t.Fatal("nil pool must fall back to the serial kernel")
	}
}

func TestZoneMapsSkipBeyondMinMax(t *testing.T) {
	// Two interleaved clusters per group: the min/max envelope spans both, so
	// a query for absent values inside the envelope cannot be pruned by SMA —
	// but the feature-vector zone map proves it empty.
	n := 4000
	col := make([]float64, n)
	for i := range col {
		if i%2 == 0 {
			col[i] = 0.1
		} else {
			col[i] = 0.9
		}
	}
	data := dataset.MustNew([]string{"x"}, [][]float64{col})
	tab := FromDataset(data, nil, 500)
	gap := geom.Box{Lo: geom.Point{0.4}, Hi: geom.Point{0.6}}
	st := tab.Count(gap)
	if st.Matched != 0 || st.GroupsRead == 0 {
		t.Fatalf("pre-zones: %+v (SMA should NOT prune the gap query)", st)
	}
	tab.BuildZoneMaps([]geom.Box{gap})
	st = tab.Count(gap)
	if st.Matched != 0 {
		t.Fatalf("zones changed the result: %+v", st)
	}
	if st.GroupsZoneSkipped != tab.NumGroups() || st.GroupsRead != 0 {
		t.Fatalf("zone maps must skip every group on the training query: %+v", st)
	}
	if st.BytesRead != 0 || st.BytesSkipped != tab.EncodedBytes() {
		t.Fatalf("zone skip byte accounting: %+v vs encoded %d", st, tab.EncodedBytes())
	}
	// A non-training query is unaffected by the zone maps.
	probe := geom.Box{Lo: geom.Point{0.0}, Hi: geom.Point{0.5}}
	if got := tab.Count(probe).Matched; got != n/2 {
		t.Fatalf("non-training query matched %d, want %d", got, n/2)
	}
	// SetZoneMaps validates shapes.
	if err := tab.SetZoneMaps([]geom.Box{gap}, make([][]uint64, 1)); err == nil {
		t.Fatal("SetZoneMaps must reject a vector-count mismatch")
	}
	if err := tab.SetZoneMaps([]geom.Box{gap}, [][]uint64{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}}); err != nil {
		t.Fatalf("SetZoneMaps rejected valid bits: %v", err)
	}
	if err := tab.SetZoneMaps(nil, nil); err != nil || tab.ZoneMapQueries() != nil {
		t.Fatal("empty workload must clear zone maps")
	}
}

func TestEncodingCountsAndCompression(t *testing.T) {
	// Sorted discrete data: the sort dim RLE-encodes; encoded size must beat
	// the raw representation.
	n := 8000
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i] = float64(i / 400) // 20 long runs
		cols[1][i] = float64(i%7) / 7 // 7 distinct values
	}
	data := dataset.MustNew([]string{"a", "b"}, cols)
	tab := FromDataset(data, nil, 1000)
	counts := tab.EncodingCounts()
	if counts["rle"] == 0 {
		t.Errorf("sorted runs must RLE-encode: %v", counts)
	}
	raw := int64(n) * 2 * 8
	if tab.EncodedBytes() >= raw {
		t.Errorf("encoded %d bytes >= raw %d", tab.EncodedBytes(), raw)
	}
}

// TestScanChargesCoveredRLEPerRunTouched: materializing a covered RLE column
// decodes one (value, length) pair per run the survivors touch, so Scan pays
// 12 bytes per run — not 8 bytes per surviving row, which overcharged until
// the clamp to the group's encoded size hid it.
func TestScanChargesCoveredRLEPerRunTouched(t *testing.T) {
	const n = 4096
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i] = float64(i / 1024)       // 4 runs: RLE
		cols[1][i] = float64(i%97)/97 + 0.01 // 97 distinct fractions: 8-bit dict
	}
	data := dataset.MustNew([]string{"run", "dict"}, cols)
	tab := FromDataset(data, nil, n)
	if got := encodingCensus(tab); got["rle"] != 1 || got["dict8"] != 1 {
		t.Fatalf("want one RLE and one 8-bit dict chunk, got %v", got)
	}
	const rlePayload, dictPayload = 4 + 4*12, 4 + 97*8 + n
	if enc := tab.EncodedBytes(); enc != rlePayload+dictPayload {
		t.Fatalf("encoded %d bytes, want %d", enc, rlePayload+dictPayload)
	}

	// The run column is covered; the dict predicate keeps rows in every run.
	q := geom.Box{Lo: geom.Point{0, 0.2}, Hi: geom.Point{3, 0.5}}
	sc := NewScanner()
	cst := sc.Count(tab, q)
	if cst.BytesRead != dictPayload {
		t.Fatalf("Count read %d bytes, want the dict payload %d", cst.BytesRead, dictPayload)
	}
	_, sst := sc.Scan(tab, q)
	if sst.Matched != cst.Matched || sst.Matched == 0 {
		t.Fatalf("Scan matched %d, Count %d", sst.Matched, cst.Matched)
	}
	if want := int64(dictPayload + 4*12); sst.BytesRead != want {
		t.Fatalf("Scan read %d bytes for %d rows, want %d (dict payload + 4 runs × 12)",
			sst.BytesRead, sst.Matched, want)
	}
}
