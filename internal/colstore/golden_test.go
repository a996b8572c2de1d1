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
	"1677/q0":  "{Matched:10000 BytesRead:115976 BytesSkipped:243 RowsDecoded:10000 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"1677/q1":  "{Matched:1548 BytesRead:30782 BytesSkipped:85437 RowsDecoded:1548 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q2":  "{Matched:685 BytesRead:32263 BytesSkipped:83956 RowsDecoded:685 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q3":  "{Matched:579 BytesRead:27027 BytesSkipped:89192 RowsDecoded:579 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q4":  "{Matched:0 BytesRead:0 BytesSkipped:116219 RowsDecoded:0 GroupsRead:0 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"1677/q5":  "{Matched:1 BytesRead:32851 BytesSkipped:83368 RowsDecoded:1 GroupsRead:1 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:1 ColsRLE:1 ColsFOR:1}",
	"1677/q6":  "{Matched:0 BytesRead:20035 BytesSkipped:96184 RowsDecoded:0 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:0 ColsRLE:0 ColsFOR:3}",
	"1677/q7":  "{Matched:5616 BytesRead:102440 BytesSkipped:13779 RowsDecoded:5616 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"1677/q8":  "{Matched:2410 BytesRead:39464 BytesSkipped:76755 RowsDecoded:2410 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"1677/q9":  "{Matched:2225 BytesRead:29367 BytesSkipped:86852 RowsDecoded:2225 GroupsRead:2 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:2 ColsRLE:2 ColsFOR:2}",
	"1677/q10": "{Matched:2439 BytesRead:47054 BytesSkipped:69165 RowsDecoded:2439 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:3 ColsFOR:3}",
	"324/q0":   "{Matched:9000 BytesRead:90000 BytesSkipped:19239 RowsDecoded:9000 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q1":   "{Matched:4980 BytesRead:78068 BytesSkipped:31171 RowsDecoded:4980 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q2":   "{Matched:2349 BytesRead:87904 BytesSkipped:21335 RowsDecoded:2349 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q3":   "{Matched:2146 BytesRead:86130 BytesSkipped:23109 RowsDecoded:2146 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q4":   "{Matched:0 BytesRead:0 BytesSkipped:109239 RowsDecoded:0 GroupsRead:0 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"324/q5":   "{Matched:1 BytesRead:35684 BytesSkipped:73555 RowsDecoded:1 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:3 ColsRLE:0 ColsFOR:1}",
	"324/q6":   "{Matched:629 BytesRead:93624 BytesSkipped:15615 RowsDecoded:629 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q7":   "{Matched:2200 BytesRead:54812 BytesSkipped:54427 RowsDecoded:2200 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q8":   "{Matched:9000 BytesRead:90000 BytesSkipped:19239 RowsDecoded:9000 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"324/q9":   "{Matched:5639 BytesRead:83278 BytesSkipped:25961 RowsDecoded:5639 GroupsRead:3 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:3 ColsRLE:0 ColsFOR:3}",
	"42/q0":    "{Matched:5000 BytesRead:43048 BytesSkipped:110 RowsDecoded:5000 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
	"42/q1":    "{Matched:2575 BytesRead:27480 BytesSkipped:15678 RowsDecoded:2575 GroupsRead:4 GroupsSkipped:1 GroupsZoneSkipped:0 ColsRaw:4 ColsDict:0 ColsRLE:4 ColsFOR:8}",
	"42/q2":    "{Matched:1574 BytesRead:21896 BytesSkipped:21262 RowsDecoded:1574 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:3 ColsFOR:6}",
	"42/q3":    "{Matched:934 BytesRead:25656 BytesSkipped:17502 RowsDecoded:934 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:3 ColsFOR:6}",
	"42/q4":    "{Matched:0 BytesRead:0 BytesSkipped:43158 RowsDecoded:0 GroupsRead:0 GroupsSkipped:5 GroupsZoneSkipped:0 ColsRaw:0 ColsDict:0 ColsRLE:0 ColsFOR:0}",
	"42/q5":    "{Matched:1 BytesRead:1024 BytesSkipped:42134 RowsDecoded:1 GroupsRead:1 GroupsSkipped:4 GroupsZoneSkipped:0 ColsRaw:1 ColsDict:0 ColsRLE:1 ColsFOR:2}",
	"42/q6":    "{Matched:2359 BytesRead:23064 BytesSkipped:20094 RowsDecoded:2359 GroupsRead:3 GroupsSkipped:2 GroupsZoneSkipped:0 ColsRaw:3 ColsDict:0 ColsRLE:3 ColsFOR:6}",
	"42/q7":    "{Matched:1381 BytesRead:12244 BytesSkipped:30914 RowsDecoded:1381 GroupsRead:2 GroupsSkipped:3 GroupsZoneSkipped:0 ColsRaw:2 ColsDict:0 ColsRLE:2 ColsFOR:4}",
	"42/q8":    "{Matched:3220 BytesRead:42940 BytesSkipped:218 RowsDecoded:3220 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
	"42/q9":    "{Matched:5000 BytesRead:43048 BytesSkipped:110 RowsDecoded:5000 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
	"42/q10":   "{Matched:5000 BytesRead:43048 BytesSkipped:110 RowsDecoded:5000 GroupsRead:5 GroupsSkipped:0 GroupsZoneSkipped:0 ColsRaw:5 ColsDict:0 ColsRLE:5 ColsFOR:10}",
}
