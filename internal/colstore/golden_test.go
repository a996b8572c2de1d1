package colstore

import (
	"fmt"
	"math"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// goldenTables are fuzzDataset tables whose columns together cover every
// physical encoding (raw, 8- and 16-bit dictionary codes, RLE, FOR) across
// several row groups each. The seed's 3-bit groups pick the column styles:
// 1677 = raw, dict8, RLE, FOR; 324 = dict16, constant (0-bit FOR), raw.
var goldenTables = []struct {
	seed            int64
	rows, dims, grp int
}{
	{1677, 10000, 4, 4096},
	{324, 9000, 3, 4096},
	{42, 5000, 4, 1000},
}

// goldenQueries is the fixed query set of the accounting golden test:
// full, interior two-sided (all dims and one dim at a time), one-sided ±Inf,
// empty, point and mixed boxes, derived from the table's domain and stored
// values.
func goldenQueries(data *dataset.Dataset) []geom.Box {
	dom := data.Domain()
	dims := data.Dims()
	inf := math.Inf(1)
	frac := func(d int, f float64) float64 { return dom.Lo[d] + f*(dom.Hi[d]-dom.Lo[d]) }
	box := func(set func(d int) (float64, float64)) geom.Box {
		q := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := 0; d < dims; d++ {
			q.Lo[d], q.Hi[d] = set(d)
		}
		return q
	}
	qs := []geom.Box{
		dom.Clone(),
		box(func(d int) (float64, float64) { return frac(d, 0.2), frac(d, 0.75) }),
		box(func(d int) (float64, float64) { return -inf, frac(d, 0.5) }),
		box(func(d int) (float64, float64) { return frac(d, 0.5), inf }),
		box(func(d int) (float64, float64) { return dom.Hi[d] + 1, dom.Hi[d] + 2 }),
		box(func(d int) (float64, float64) { v := data.At(17, d); return v, v }),
		box(func(d int) (float64, float64) {
			switch v := data.At(101, d); d % 4 {
			case 0:
				return frac(d, 0.1), frac(d, 0.6)
			case 1:
				return -inf, v
			case 2:
				return v, inf
			default:
				return v, v
			}
		}),
	}
	for only := 0; only < dims; only++ {
		qs = append(qs, box(func(d int) (float64, float64) {
			if d == only {
				return frac(d, 0.3), frac(d, 0.55)
			}
			return -inf, inf
		}))
	}
	return qs
}

// encodingCensus classifies every column chunk of t, telling 8- and 16-bit
// dictionary codes apart.
func encodingCensus(t *Table) map[string]int {
	out := make(map[string]int)
	for gi := range t.groups {
		for d := range t.groups[gi].cols {
			c := &t.groups[gi].cols[d]
			k := c.kind.String()
			if c.kind == colDict {
				k = "dict8"
				if c.codes16 != nil {
					k = "dict16"
				}
			}
			out[k]++
		}
	}
	return out
}

// TestScanStatsGolden pins the full ScanStats of Count and Scan on a fixed
// table and query set, so a kernel rewrite that changes how predicates are
// evaluated cannot silently change the byte accounting behind the Eq. 1
// telemetry.
func TestScanStatsGolden(t *testing.T) {
	census := make(map[string]int)
	sc := NewScanner()
	for _, gt := range goldenTables {
		data := fuzzDataset(gt.seed, gt.rows, gt.dims)
		tab := FromDataset(data, nil, gt.grp)
		if tab.NumGroups() < 2 {
			t.Fatalf("seed %d: %d row groups, want several", gt.seed, tab.NumGroups())
		}
		for k, n := range encodingCensus(tab) {
			census[k] += n
		}
		for qi, q := range goldenQueries(data) {
			key := fmt.Sprintf("%d/q%d", gt.seed, qi)
			cst := sc.Count(tab, q)
			_, sst := sc.Scan(tab, q)
			if got := fmt.Sprintf("%+v", cst); got != goldenCount[key] {
				t.Errorf("%s Count:\n got  %s\n want %s", key, got, goldenCount[key])
			}
			if got := fmt.Sprintf("%+v", sst); got != goldenScan[key] {
				t.Errorf("%s Scan:\n got  %s\n want %s", key, got, goldenScan[key])
			}
		}
	}
	for _, k := range []string{"raw", "dict8", "dict16", "rle", "for"} {
		if census[k] == 0 {
			t.Errorf("golden tables hold no %s column chunk: %v", k, census)
		}
	}
}

var goldenCount = map[string]string{
	"1677/q0":  "{Matched:10000 BytesRead:0 BytesSkipped:116219 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"1677/q1":  "{Matched:1548 BytesRead:30782 BytesSkipped:85437 RowsDecoded:0 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q2":  "{Matched:685 BytesRead:30475 BytesSkipped:85744 RowsDecoded:0 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:1 ColsFOR:2}",
	"1677/q3":  "{Matched:579 BytesRead:26235 BytesSkipped:89984 RowsDecoded:0 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:1 ColsFOR:2}",
	"1677/q4":  "{Matched:0 BytesRead:0 BytesSkipped:116219 RowsDecoded:0 GroupsRead:0 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"1677/q5":  "{Matched:1 BytesRead:32851 BytesSkipped:83368 RowsDecoded:0 GroupsRead:1 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:1 ColsRLE:1 ColsFOR:1}",
	"1677/q6":  "{Matched:0 BytesRead:20035 BytesSkipped:96184 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:0 ColsRLE:0 ColsFOR:3}",
	"1677/q7":  "{Matched:5616 BytesRead:80000 BytesSkipped:36219 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"1677/q8":  "{Matched:2410 BytesRead:10204 BytesSkipped:106015 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:3 ColsRLE:0 ColsFOR:0}",
	"1677/q9":  "{Matched:2225 BytesRead:4892 BytesSkipped:111327 RowsDecoded:0 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:2 ColsFOR:0}",
	"1677/q10": "{Matched:2439 BytesRead:20027 BytesSkipped:96192 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:3}",
	"324/q0":   "{Matched:9000 BytesRead:0 BytesSkipped:109239 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"324/q1":   "{Matched:4980 BytesRead:78068 BytesSkipped:31171 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:0}",
	"324/q2":   "{Matched:2349 BytesRead:87904 BytesSkipped:21335 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:0}",
	"324/q3":   "{Matched:2146 BytesRead:86130 BytesSkipped:23109 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:0}",
	"324/q4":   "{Matched:0 BytesRead:0 BytesSkipped:109239 RowsDecoded:0 GroupsRead:0 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"324/q5":   "{Matched:1 BytesRead:35684 BytesSkipped:73555 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:3 ColsRLE:0 ColsFOR:0}",
	"324/q6":   "{Matched:629 BytesRead:93624 BytesSkipped:15615 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:0}",
	"324/q7":   "{Matched:2200 BytesRead:37212 BytesSkipped:72027 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:3 ColsRLE:0 ColsFOR:0}",
	"324/q8":   "{Matched:9000 BytesRead:0 BytesSkipped:109239 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"324/q9":   "{Matched:5639 BytesRead:72000 BytesSkipped:37239 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"42/q0":    "{Matched:5000 BytesRead:0 BytesSkipped:43158 RowsDecoded:0 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"42/q1":    "{Matched:2575 BytesRead:26292 BytesSkipped:16866 RowsDecoded:0 GroupsRead:4 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:4 ColsDict:0 ColsRLE:2 ColsFOR:0}",
	"42/q2":    "{Matched:1574 BytesRead:20720 BytesSkipped:22438 RowsDecoded:0 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:1 ColsFOR:0}",
	"42/q3":    "{Matched:934 BytesRead:24576 BytesSkipped:18582 RowsDecoded:0 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:1 ColsFOR:0}",
	"42/q4":    "{Matched:0 BytesRead:0 BytesSkipped:43158 RowsDecoded:0 GroupsRead:0 GroupsSkipped:5 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"42/q5":    "{Matched:1 BytesRead:1024 BytesSkipped:42134 RowsDecoded:0 GroupsRead:1 GroupsSkipped:4 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:0 ColsRLE:1 ColsFOR:0}",
	"42/q6":    "{Matched:2359 BytesRead:22500 BytesSkipped:20658 RowsDecoded:0 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:2 ColsFOR:0}",
	"42/q7":    "{Matched:1381 BytesRead:1196 BytesSkipped:41962 RowsDecoded:0 GroupsRead:2 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:2 ColsFOR:0}",
	"42/q8":    "{Matched:3220 BytesRead:40000 BytesSkipped:3158 RowsDecoded:0 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"42/q9":    "{Matched:5000 BytesRead:0 BytesSkipped:43158 RowsDecoded:0 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"42/q10":   "{Matched:5000 BytesRead:0 BytesSkipped:43158 RowsDecoded:0 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
}

var goldenScan = map[string]string{
	"1677/q0":  "{Matched:10000 BytesRead:116207 BytesSkipped:12 RowsDecoded:10000 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"1677/q1":  "{Matched:1548 BytesRead:30782 BytesSkipped:85437 RowsDecoded:1548 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q2":  "{Matched:685 BytesRead:32263 BytesSkipped:83956 RowsDecoded:685 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q3":  "{Matched:579 BytesRead:27027 BytesSkipped:89192 RowsDecoded:579 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q4":  "{Matched:0 BytesRead:0 BytesSkipped:116219 RowsDecoded:0 GroupsRead:0 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"1677/q5":  "{Matched:1 BytesRead:32851 BytesSkipped:83368 RowsDecoded:1 GroupsRead:1 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:1 ColsRLE:1 ColsFOR:1}",
	"1677/q6":  "{Matched:0 BytesRead:20035 BytesSkipped:96184 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:0 ColsRLE:0 ColsFOR:3}",
	"1677/q7":  "{Matched:5616 BytesRead:102671 BytesSkipped:13548 RowsDecoded:5616 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"1677/q8":  "{Matched:2410 BytesRead:39491 BytesSkipped:76728 RowsDecoded:2410 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"1677/q9":  "{Matched:2225 BytesRead:29521 BytesSkipped:86698 RowsDecoded:2225 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q10": "{Matched:2439 BytesRead:47258 BytesSkipped:68961 RowsDecoded:2439 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"324/q0":   "{Matched:9000 BytesRead:109239 BytesSkipped:0 RowsDecoded:9000 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q1":   "{Matched:4980 BytesRead:78095 BytesSkipped:31144 RowsDecoded:4980 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q2":   "{Matched:2349 BytesRead:87931 BytesSkipped:21308 RowsDecoded:2349 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q3":   "{Matched:2146 BytesRead:86157 BytesSkipped:23082 RowsDecoded:2146 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q4":   "{Matched:0 BytesRead:0 BytesSkipped:109239 RowsDecoded:0 GroupsRead:0 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"324/q5":   "{Matched:1 BytesRead:35693 BytesSkipped:73546 RowsDecoded:1 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:3 ColsRLE:0 ColsFOR:1}",
	"324/q6":   "{Matched:629 BytesRead:93651 BytesSkipped:15588 RowsDecoded:629 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q7":   "{Matched:2200 BytesRead:54839 BytesSkipped:54400 RowsDecoded:2200 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q8":   "{Matched:9000 BytesRead:109239 BytesSkipped:0 RowsDecoded:9000 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q9":   "{Matched:5639 BytesRead:102517 BytesSkipped:6722 RowsDecoded:5639 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"42/q0":    "{Matched:5000 BytesRead:43138 BytesSkipped:20 RowsDecoded:5000 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
	"42/q1":    "{Matched:2575 BytesRead:27552 BytesSkipped:15606 RowsDecoded:2575 GroupsRead:4 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:4 ColsDict:0 ColsRLE:4 ColsFOR:8}",
	"42/q2":    "{Matched:1574 BytesRead:21950 BytesSkipped:21208 RowsDecoded:1574 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:3 ColsFOR:6}",
	"42/q3":    "{Matched:934 BytesRead:25710 BytesSkipped:17448 RowsDecoded:934 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:3 ColsFOR:6}",
	"42/q4":    "{Matched:0 BytesRead:0 BytesSkipped:43158 RowsDecoded:0 GroupsRead:0 GroupsSkipped:5 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"42/q5":    "{Matched:1 BytesRead:1042 BytesSkipped:42116 RowsDecoded:1 GroupsRead:1 GroupsSkipped:4 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:0 ColsRLE:1 ColsFOR:2}",
	"42/q6":    "{Matched:2359 BytesRead:23118 BytesSkipped:20040 RowsDecoded:2359 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:3 ColsFOR:6}",
	"42/q7":    "{Matched:1381 BytesRead:12280 BytesSkipped:30878 RowsDecoded:1381 GroupsRead:2 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:0 ColsRLE:2 ColsFOR:4}",
	"42/q8":    "{Matched:3220 BytesRead:43030 BytesSkipped:128 RowsDecoded:3220 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
	"42/q9":    "{Matched:5000 BytesRead:43138 BytesSkipped:20 RowsDecoded:5000 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
	"42/q10":   "{Matched:5000 BytesRead:43138 BytesSkipped:20 RowsDecoded:5000 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
}

// TestScanChargesCoveredMetadata pins the bytes Scan charges for covered
// columns it materializes: a dictionary column pays its dictionary probe
// and a FOR column its 9-byte header on top of the values gathered, the same
// metadata the predicate path charges, while Count leaves both untouched.
func TestScanChargesCoveredMetadata(t *testing.T) {
	const n = 64
	raw, dict, fr := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		raw[i] = 0.1 + 1.5*float64(i)     // distinct, non-integral steps: raw
		dict[i] = 0.1 + 0.25*float64(i%4) // four distinct values: dict
		fr[i] = 1000 + float64(i*7%64)    // integral deltas < 64: 6-bit FOR
	}
	data := dataset.MustNew([]string{"raw", "dict", "for"}, [][]float64{raw, dict, fr})
	tab := FromDataset(data, nil, n)
	g := &tab.groups[0]
	if tab.NumGroups() != 1 || g.cols[0].kind != colRaw || g.cols[1].kind != colDict || g.cols[2].kind != colFOR || g.cols[2].forBits != 6 {
		t.Fatalf("unexpected table shape: %v", tab.EncodingCounts())
	}
	inf := math.Inf(1)
	q := geom.Box{Lo: geom.Point{10, -inf, -inf}, Hi: geom.Point{40, inf, inf}}
	const matched = 20 // raw values 10.6 .. 39.1 (i = 7 .. 26)
	rawB := int64(n * 8)
	dictB := int64(4+4*8) + matched    // dictionary probe + one 8-bit code per row
	forB := int64(9) + (matched*6+7)/8 // header + packed deltas
	enc := tab.EncodedBytes()

	cst := tab.Count(q)
	if cst.Matched != matched || cst.BytesRead != rawB || cst.BytesSkipped != enc-rawB {
		t.Errorf("Count = %+v, want %d matched, %d bytes read", cst, matched, rawB)
	}
	_, sst := tab.Scan(q)
	if want := rawB + dictB + forB; sst.Matched != matched || sst.BytesRead != want || sst.BytesSkipped != enc-want {
		t.Errorf("Scan = %+v, want %d matched, %d bytes read (raw %d + dict %d + FOR %d)",
			sst, matched, want, rawB, dictB, forB)
	}
}
