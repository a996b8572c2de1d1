package blockstore

import (
	"sort"

	"paw/internal/colstore"
	"paw/internal/dataset"
)

// Rows inside a partition are stored in Z-order (Morton order) over the
// partition's own row bounding box, so each row group covers a compact
// sub-box of the partition and its min/max envelope prunes queries that
// only clip the partition (DESIGN.md §11).
//
// The key of a row interleaves one quantised coordinate per dimension:
// dimension d is scaled onto [0, 2^b-1] over the partition's finite range
// on d, with b = 64/dims bits (at most 32), and bit j of dimension d lands
// on key bit j*dims+d. Only the first 64 dimensions enter the key. Values
// at or below the range (-Inf, NaN) quantise to 0 and values at or above
// it (+Inf) to 2^b-1, so every row gets a key and the sort only reorders.

// spreadTable returns the byte-spread table for a dims-dimensional key:
// entry x holds bit j of x at bit j*dims, for every j that fits in 64 bits.
// Interleaving a coordinate is then one lookup per byte. Each partition
// builds its own: 2k steps, small beside keying its rows.
func spreadTable(dims int) *[256]uint64 {
	var t [256]uint64
	for x := range t {
		for j := 0; j < 8 && j*dims < 64; j++ {
			t[x] |= uint64(x>>j&1) << (j * dims)
		}
	}
	return &t
}

// tableBuilder holds the scratch of the partition-table builder. One
// builder serves one goroutine; its buffers grow to the largest partition
// it has built.
type tableBuilder struct {
	keys, keysTmp []uint64
	perm, permTmp []uint32
	vals, sorted  [][]float64
	ident         []int
}

// build encodes the given rows of data (distinct row indices in ascending
// order) as the partition's columnar table, rows in Z-order, with zone maps
// when cfg asks for them. The rows' values are gathered once into
// partition-local columns, so keying, sorting and encoding all run on
// contiguous memory rather than probing the full table's columns.
func (b *tableBuilder) build(data *dataset.Dataset, rows []int, cfg Config) *colstore.Table {
	n, dims := len(rows), data.Dims()
	b.vals = growColumns(b.vals, dims, n)
	for d, dst := range b.vals {
		col := data.Column(d)
		for i, r := range rows {
			dst[i] = col[r]
		}
	}
	perm := b.zorder(n)
	b.sorted = growColumns(b.sorted, dims, n)
	for d, dst := range b.sorted {
		src := b.vals[d]
		for i, p := range perm {
			dst[i] = src[p]
		}
	}
	local := dataset.MustNew(data.Names(), b.sorted)
	for len(b.ident) < n {
		b.ident = append(b.ident, len(b.ident))
	}
	ident := b.ident[:n:n]
	tab := colstore.FromDataset(local, ident, cfg.GroupRows)
	if len(cfg.ZoneQueries) > 0 {
		if err := tab.SetZoneMaps(cfg.ZoneQueries, zoneMapBits(local, ident, tab, cfg.ZoneQueries)); err != nil {
			panic(err) // impossible: bits are built from this table's groups
		}
	}
	return tab
}

// growColumns resizes cols to dims columns of n values each, reusing their
// backing arrays where large enough.
func growColumns(cols [][]float64, dims, n int) [][]float64 {
	if len(cols) != dims {
		cols = make([][]float64, dims)
	}
	for d := range cols {
		if cap(cols[d]) < n {
			cols[d] = make([]float64, n)
		}
		cols[d] = cols[d][:n]
	}
	return cols
}

// zorder returns the permutation that puts the gathered rows b.vals in
// Z-key order: a stable LSD radix sort, so rows with equal keys keep their
// order.
func (b *tableBuilder) zorder(n int) []uint32 {
	if cap(b.perm) < n {
		b.perm = make([]uint32, n)
		b.permTmp = make([]uint32, n)
		b.keysTmp = make([]uint64, n)
	}
	perm := b.perm[:n]
	for i := range perm {
		perm[i] = uint32(i)
	}
	if n < 2 {
		return perm
	}
	keys := b.zkeys(n)

	// One pass counts all eight byte digits; a digit every key shares
	// needs no scatter pass.
	var counts [8][256]int
	for _, k := range keys {
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	srcK, dstK := keys, b.keysTmp[:n]
	srcP, dstP := perm, b.permTmp[:n]
	for p := range counts {
		shift := uint(8 * p)
		c := &counts[p]
		if c[byte(keys[0]>>shift)] == n {
			continue
		}
		var next [256]int
		sum := 0
		for d, k := range c {
			next[d] = sum
			sum += k
		}
		for i, k := range srcK {
			d := byte(k >> shift)
			dstK[next[d]] = k
			dstP[next[d]] = srcP[i]
			next[d]++
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	return srcP
}

// zkeys computes the Z-key of every gathered row into the builder's key
// buffer.
func (b *tableBuilder) zkeys(n int) []uint64 {
	kd := min(len(b.vals), 64)
	t := spreadTable(kd)
	if cap(b.keys) < n {
		b.keys = make([]uint64, n)
	}
	keys := b.keys[:n]
	clear(keys)
	maxQ := uint64(1)<<min(32, 64/kd) - 1
	s1, s2, s3 := 8*uint(kd), 16*uint(kd), 24*uint(kd)
	for d, col := range b.vals[:kd] {
		lo, hi, ok := finiteRange(col)
		if !ok || !(hi > lo) {
			continue // one value (or none finite): d cannot order the rows
		}
		scale := float64(maxQ) / (hi - lo)
		for i, v := range col {
			var q uint64
			if v > lo {
				// At or past hi, and where hi-lo overflows, f is not
				// below maxQ (or NaN): clamp.
				q = maxQ
				if f := (v - lo) * scale; f < float64(maxQ) {
					q = uint64(f)
				}
			}
			// Shifts past the key width yield 0, so coordinates narrower
			// than 32 bits need no special case.
			spread := t[q&0xff] | t[q>>8&0xff]<<s1 | t[q>>16&0xff]<<s2 | t[q>>24&0xff]<<s3
			keys[i] |= spread << uint(d)
		}
	}
	return keys
}

// finiteRange returns the smallest and largest finite value of col; ok is
// false when none is finite.
func finiteRange(col []float64) (lo, hi float64, ok bool) {
	for _, v := range col {
		if v-v != 0 { // ±Inf and NaN
			continue
		}
		if !ok {
			lo, hi, ok = v, v, true
			continue
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, ok
}

// PartitionTable builds the stored table of one partition from the given
// rows of data: the rows in Z-order over their bounding box, encoded in
// cfg.GroupRows-row groups, with zone maps over cfg.ZoneQueries when set.
// rows is a set of distinct row indices in any order and is not modified;
// the table depends only on the set, so a partition rebuilt for a
// migration or a rebalance encodes exactly as Materialize stored it.
func PartitionTable(data *dataset.Dataset, rows []int, cfg Config) *colstore.Table {
	if !sort.IntsAreSorted(rows) {
		rows = append([]int(nil), rows...)
		sort.Ints(rows)
	}
	var b tableBuilder
	return b.build(data, rows, cfg.withDefaults())
}
