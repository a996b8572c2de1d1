package bench

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/parbuild"
)

// ScanResult is one (family, mode, selectivity) cell of the columnar-scan
// benchmark. Throughputs are effective rates over the table's raw logical
// bytes (rows × dims × 8): a scan that skips row groups or columns is
// credited for the data it answered about, not just the bytes it decoded —
// that is what makes skipping show up as throughput.
type ScanResult struct {
	// Family is the query shape: "clustered" constrains only the sort
	// dimension (the others are SMA-covered), "multidim" adds predicates on
	// the unsorted dictionary columns so the refinement kernels run.
	// "scattered" runs two-sided interior predicates on a raw and a
	// dictionary column of an unsorted table, cycling over many distinct
	// boxes per op so no branch predictor can learn the row outcomes.
	Family string `json:"family"`
	// Mode is the execution path: "naive" (row-at-a-time over fully decoded
	// groups), "vectorized" (selection-vector count), "materialize"
	// (vectorized scan with late materialization), "parallel" (vectorized
	// count fanned over row groups), "vectorized-zones" (vectorized count
	// with feature-vector zone maps).
	Mode string `json:"mode"`
	// Workers is the pool width for the parallel mode (0 otherwise).
	Workers int `json:"workers,omitempty"`
	// TargetSelectivity is the requested matching fraction on the sort
	// dimension (of the whole box for "scattered"); Matched is what the
	// query actually selected (the mean per box for "scattered", as are
	// the byte and group counts).
	TargetSelectivity float64 `json:"target_selectivity"`
	Matched           int     `json:"matched_rows"`
	NsPerOp           int64   `json:"ns_per_op"`
	RowsPerSec        float64 `json:"rows_per_sec"`
	MBPerSec          float64 `json:"mb_per_sec"`
	AllocsPerOp       float64 `json:"allocs_per_op"`
	BytesRead         int64   `json:"bytes_read"`
	BytesSkipped      int64   `json:"bytes_skipped"`
	GroupsRead        int     `json:"groups_read"`
	GroupsSkipped     int     `json:"groups_skipped"`
	GroupsZoneSkipped int     `json:"groups_zone_skipped,omitempty"`
	// SpeedupVsNaive is this cell's throughput over the naive mode at the
	// same family and selectivity (the encoded-vs-raw kernel payoff).
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

// ScanReport is the machine-readable scan-kernel snapshot written to
// BENCH_scan.json.
type ScanReport struct {
	Meta       Meta `json:"meta"`
	GOMAXPROCS int  `json:"gomaxprocs"`
	NumCPU     int  `json:"num_cpu"`
	Rows       int  `json:"rows"`
	Dims       int  `json:"dims"`
	RowGroups  int  `json:"row_groups"`
	GroupRows  int  `json:"group_rows"`
	// RawBytes is rows × dims × 8 (the float64 payload a raw store holds);
	// EncodedBytes is the same data under the chosen per-column encodings.
	RawBytes         int64          `json:"raw_bytes"`
	EncodedBytes     int64          `json:"encoded_bytes"`
	CompressionRatio float64        `json:"compression_ratio"`
	Encodings        map[string]int `json:"encodings"`
	// DecodeMBPerSec is the full-decode kernel rate (raw logical MB/s of a
	// full-domain materializing scan) — the CPU bound a cluster simulation
	// should cap throughput at (cluster.Config.KernelMBps, scaled 1/1000).
	DecodeMBPerSec float64      `json:"decode_mb_per_sec"`
	Results        []ScanResult `json:"results"`
}

// scanSelectivities are the per-family target fractions on the sorted
// dimension; the ≤1% points are where row-group skipping dominates.
var scanSelectivities = map[string][]float64{
	"clustered": {0.5, 0.1, 0.01, 0.001},
	"multidim":  {0.1, 0.01},
	"scattered": {0.9, 0.5, 0.1, 0.01},
}

// scatteredDims are the scattered family's predicate columns on the TPC-H
// stand-in: dim 1 (extendedprice) stays raw, dim 0 (quantity) dictionary-
// encodes. scatteredBoxes is how many distinct boxes one op cycles over —
// enough that the outcome pattern of a row group never repeats within the
// history a branch predictor keeps.
var scatteredDims = [2]int{1, 0}

const scatteredBoxes = 64

// scanSortDim is the dimension the benchmark table is clustered on. The
// TPC-H stand-in's dim 1 (extendedprice) is continuous, so sorting by it
// gives row groups with tight disjoint envelopes and arbitrary selectivity
// granularity, while the discrete dims (quantity, discount, tax) stay
// unsorted and dictionary-encode.
const scanSortDim = 1

// ScanBench measures the vectorized columnar scan kernels against the
// retained naive reference on a dim-sorted TPC-H stand-in: per-selectivity
// count/scan/parallel throughput, byte skipping, allocation pressure, and
// the full-decode rate. All modes return identical match counts (the
// differential suites prove it); only time, bytes and allocations differ.
func ScanBench(cfg Config) ScanReport {
	data := cfg.tpch()
	n := data.NumRows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return data.At(order[a], scanSortDim) < data.At(order[b], scanSortDim)
	})
	tab := colstore.FromDataset(data, order, colstore.DefaultGroupRows)
	sorted := make([]float64, n)
	for i, r := range order {
		sorted[i] = data.At(r, scanSortDim)
	}
	dom := data.Domain()

	rep := ScanReport{
		Meta:         Meta{Schema: ScanSchema},
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Rows:         n,
		Dims:         tab.Dims(),
		RowGroups:    tab.NumGroups(),
		GroupRows:    colstore.DefaultGroupRows,
		RawBytes:     int64(n) * int64(tab.Dims()) * 8,
		EncodedBytes: tab.EncodedBytes(),
		Encodings:    tab.EncodingCounts(),
	}
	if rep.EncodedBytes > 0 {
		rep.CompressionRatio = float64(rep.RawBytes) / float64(rep.EncodedBytes)
	}

	// query builds a box matching ~sel of the rows on the sort dimension,
	// anchored at the 30th percentile. The multidim family additionally trims
	// the unsorted dimensions to 92% of their domain, turning them into
	// active (refined) predicate columns instead of covered ones.
	query := func(family string, sel float64) geom.Box {
		lo := int(0.30 * float64(n))
		hi := lo + int(sel*float64(n)) - 1
		if hi >= n {
			hi = n - 1
		}
		q := geom.Box{Lo: dom.Lo.Clone(), Hi: dom.Hi.Clone()}
		q.Lo[scanSortDim] = sorted[lo]
		q.Hi[scanSortDim] = sorted[hi]
		if family == "multidim" {
			for d := 0; d < tab.Dims(); d++ {
				if d == scanSortDim {
					continue
				}
				span := dom.Hi[d] - dom.Lo[d]
				q.Hi[d] = dom.Lo[d] + 0.92*span
			}
		}
		return q
	}

	sc := colstore.NewScanner()
	pool := parbuild.New(0)
	var sp colstore.ScannerPool

	measure := func(family, mode string, workers int, sel float64, st colstore.ScanStats, op func()) ScanResult {
		op() // warm up scratch so steady-state allocations are measured
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				op()
			}
		})
		out := ScanResult{
			Family:            family,
			Mode:              mode,
			Workers:           workers,
			TargetSelectivity: sel,
			Matched:           st.Matched,
			NsPerOp:           res.NsPerOp(),
			AllocsPerOp:       float64(res.AllocsPerOp()),
			BytesRead:         st.BytesRead,
			BytesSkipped:      st.BytesSkipped,
			GroupsRead:        st.GroupsRead,
			GroupsSkipped:     st.GroupsSkipped,
			GroupsZoneSkipped: st.GroupsZoneSkipped,
		}
		if res.NsPerOp() > 0 {
			perSec := 1e9 / float64(res.NsPerOp())
			out.RowsPerSec = float64(n) * perSec
			out.MBPerSec = float64(rep.RawBytes) / 1e6 * perSec
		}
		return out
	}

	for _, family := range []string{"clustered", "multidim"} {
		for _, sel := range scanSelectivities[family] {
			q := query(family, sel)
			naive := measure(family, "naive", 0, sel, tab.CountNaive(q), func() {
				tab.CountNaive(q)
			})
			rep.Results = append(rep.Results, naive)

			vec := measure(family, "vectorized", 0, sel, sc.Count(tab, q), func() {
				sc.Count(tab, q)
			})
			vec.SpeedupVsNaive = speedup(naive.NsPerOp, vec.NsPerOp)
			rep.Results = append(rep.Results, vec)

			_, mst := sc.Scan(tab, q)
			mat := measure(family, "materialize", 0, sel, mst, func() {
				sc.Scan(tab, q)
			})
			mat.SpeedupVsNaive = speedup(naive.NsPerOp, mat.NsPerOp)
			rep.Results = append(rep.Results, mat)

			par := measure(family, "parallel", pool.Workers(), sel, tab.CountParallel(q, pool, &sp), func() {
				tab.CountParallel(q, pool, &sp)
			})
			par.SpeedupVsNaive = speedup(naive.NsPerOp, par.NsPerOp)
			rep.Results = append(rep.Results, par)
		}
	}

	// Feature-vector zone maps over the multidim queries: the scan skips row
	// groups holding no matching row, beyond what min/max envelopes prove.
	zq := make([]geom.Box, 0, len(scanSelectivities["multidim"]))
	for _, sel := range scanSelectivities["multidim"] {
		zq = append(zq, query("multidim", sel))
	}
	tab.BuildZoneMaps(zq)
	for i, sel := range scanSelectivities["multidim"] {
		q := zq[i]
		var naiveNs int64
		for _, r := range rep.Results {
			if r.Family == "multidim" && r.Mode == "naive" && r.TargetSelectivity == sel {
				naiveNs = r.NsPerOp
			}
		}
		zr := measure("multidim", "vectorized-zones", 0, sel, sc.Count(tab, q), func() {
			sc.Count(tab, q)
		})
		zr.SpeedupVsNaive = speedup(naiveNs, zr.NsPerOp)
		rep.Results = append(rep.Results, zr)
	}
	tab.BuildZoneMaps(nil)

	// Scattered family: the unsorted table, where no row group is pruned and
	// every interior predicate leaves each row's outcome unpredictable.
	// Measuring one repeated box would let the predictor memorise the
	// outcomes of every group and hide the cost of branching per row.
	flat := colstore.FromDataset(data, nil, colstore.DefaultGroupRows)
	for _, sel := range scanSelectivities["scattered"] {
		qs := scatteredQueries(data, sel, rand.New(rand.NewSource(cfg.Seed)))
		modes := []struct {
			name string
			scan func(geom.Box) colstore.ScanStats
		}{
			{"naive", flat.CountNaive},
			{"vectorized", func(q geom.Box) colstore.ScanStats { return sc.Count(flat, q) }},
			{"materialize", func(q geom.Box) colstore.ScanStats {
				_, st := sc.Scan(flat, q)
				return st
			}},
		}
		var naiveNs int64
		for _, m := range modes {
			next := 0
			r := measure("scattered", m.name, 0, sel, meanStats(qs, m.scan), func() {
				m.scan(qs[next%len(qs)])
				next++
			})
			if m.name == "naive" {
				naiveNs = r.NsPerOp
			} else {
				r.SpeedupVsNaive = speedup(naiveNs, r.NsPerOp)
			}
			rep.Results = append(rep.Results, r)
		}
	}

	// Full-domain materializing scan: every group and column decodes, giving
	// the pure kernel decode rate for the simulator's CPU bound.
	full := dom.Clone()
	fr := measure("clustered", "decode-all", 0, 1.0, func() colstore.ScanStats {
		_, st := sc.Scan(tab, full)
		return st
	}(), func() {
		sc.Scan(tab, full)
	})
	rep.DecodeMBPerSec = fr.MBPerSec
	rep.Results = append(rep.Results, fr)
	return rep
}

// scatteredQueries returns scatteredBoxes distinct boxes matching about sel
// of data's rows: on each scatteredDims column a two-sided interior range
// holding sqrt(sel) of the values (the columns are independent), at a
// random offset; the other columns stay unconstrained.
func scatteredQueries(data *dataset.Dataset, sel float64, rng *rand.Rand) []geom.Box {
	n := data.NumRows()
	frac := math.Sqrt(sel)
	var sorted [len(scatteredDims)][]float64
	for i, d := range scatteredDims {
		vals := make([]float64, n)
		for r := range vals {
			vals[r] = data.At(r, d)
		}
		sort.Float64s(vals)
		sorted[i] = vals
	}
	dom := data.Domain()
	qs := make([]geom.Box, scatteredBoxes)
	for b := range qs {
		q := geom.Box{Lo: dom.Lo.Clone(), Hi: dom.Hi.Clone()}
		for i, d := range scatteredDims {
			width := max(1, int(frac*float64(n)))
			lo := rng.Intn(n - width + 1)
			q.Lo[d], q.Hi[d] = sorted[i][lo], sorted[i][lo+width-1]
		}
		qs[b] = q
	}
	return qs
}

// meanStats runs scan over every box and returns the per-box mean of its
// statistics (integer division).
func meanStats(qs []geom.Box, scan func(geom.Box) colstore.ScanStats) colstore.ScanStats {
	var sum colstore.ScanStats
	for _, q := range qs {
		sum.Add(scan(q))
	}
	n := len(qs)
	return colstore.ScanStats{
		Matched:       sum.Matched / n,
		BytesRead:     sum.BytesRead / int64(n),
		BytesSkipped:  sum.BytesSkipped / int64(n),
		RowsDecoded:   sum.RowsDecoded / int64(n),
		GroupsRead:    sum.GroupsRead / n,
		GroupsSkipped: sum.GroupsSkipped / n,
	}
}
