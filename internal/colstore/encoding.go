package colstore

import (
	"math"
	"math/bits"
	"sort"
)

// colKind identifies the physical encoding of one column chunk. The values
// are part of the PAWC v2 on-disk format and must not be renumbered.
type colKind uint8

const (
	// colRaw stores every value as a float64 (8 bytes/value).
	colRaw colKind = iota
	// colDict stores a sorted dictionary of the distinct values plus one
	// small fixed-width code per row. Range predicates are evaluated once
	// against the dictionary and then compared against codes.
	colDict
	// colRLE stores (value, run length) pairs. Predicates accept or reject
	// whole runs with a single comparison.
	colRLE
	// colFOR is frame-of-reference bit-packing: every value is base plus a
	// non-negative integral delta packed at the minimal bit width.
	colFOR
)

// dictMaxCard caps dictionary cardinality at what a 2-byte code addresses.
const dictMaxCard = 1 << 16

// String names the encoding for introspection and benchmark reports.
func (k colKind) String() string {
	switch k {
	case colDict:
		return "dict"
	case colRLE:
		return "rle"
	case colFOR:
		return "for"
	default:
		return "raw"
	}
}

// column is one encoded column chunk of a row group. Exactly the fields of
// the active kind are populated; the rest stay nil/zero.
type column struct {
	kind colKind
	n    int

	// colRaw
	raw []float64

	// colDict: dict is sorted ascending; codes index into it. codes16 is
	// used when len(dict) > 256, codes8 otherwise.
	dict    []float64
	codes8  []uint8
	codes16 []uint16

	// colRLE
	runVals []float64
	runLens []uint32

	// colFOR: value(i) = base + float64(delta_i), delta packed at forBits
	// bits per value (0 bits: every value equals base).
	base    float64
	forBits uint8
	packed  []uint64
}

// payloadBytes returns the encoded physical size of the column chunk — the
// byte count its PAWC v2 payload occupies (excluding the 1-byte kind tag).
func (c *column) payloadBytes() int64 {
	switch c.kind {
	case colDict:
		b := int64(4) + int64(len(c.dict))*8
		if c.codes8 != nil {
			return b + int64(len(c.codes8))
		}
		return b + int64(len(c.codes16))*2
	case colRLE:
		return 4 + int64(len(c.runVals))*12
	case colFOR:
		return 9 + int64(len(c.packed))*8
	default:
		return int64(c.n) * 8
	}
}

// valueBytes returns the bytes decoded when k individual values of the
// column are touched (selection-vector refinement or late materialization).
func (c *column) valueBytes(k int) int64 {
	switch c.kind {
	case colDict:
		if c.codes8 != nil {
			return int64(k)
		}
		return int64(k) * 2
	case colFOR:
		return (int64(k)*int64(c.forBits) + 7) / 8
	default:
		// Raw values are 8 bytes. RLE is charged per run touched (12 bytes
		// each) by refine and gather, which walk the runs, never here.
		return int64(k) * 8
	}
}

// forWords returns the packed-word count for n values at w bits each.
func forWords(n int, w uint8) int {
	return (n*int(w) + 63) / 64
}

// forAt extracts delta i from the packed words at w bits per value. w must
// be in (0, 32].
func forAt(packed []uint64, i int, w uint8) uint64 {
	bitPos := i * int(w)
	word, off := bitPos>>6, uint(bitPos&63)
	v := packed[word] >> off
	if off+uint(w) > 64 {
		v |= packed[word+1] << (64 - off)
	}
	return v & (1<<uint(w) - 1)
}

// encodeColumn picks the cheapest exact encoding for vals and returns the
// encoded column. The choice is a pure function of the values, so encoding
// is deterministic. sortScratch is reused across calls to stage the
// dictionary probe; it is grown as needed and returned.
func encodeColumn(vals []float64, sortScratch []float64) (column, []float64) {
	n := len(vals)
	c := column{kind: colRaw, n: n}
	if n == 0 {
		return c, sortScratch
	}

	// Pass 1: min and run structure.
	min := vals[0]
	runs := 1
	for i := 1; i < n; i++ {
		v := vals[i]
		if v < min {
			min = v
		}
		if v != vals[i-1] {
			runs++
		}
	}

	// Pass 2: frame-of-reference applicability. Deltas must be exactly
	// reconstructible (base + float64(delta) == value) and fit 32 bits.
	forOK := true
	var maxDelta uint64
	for _, v := range vals {
		d := v - min
		if !(d >= 0) || d != math.Trunc(d) || d >= 1<<32 {
			forOK = false
			break
		}
		u := uint64(d)
		if min+float64(u) != v {
			forOK = false
			break
		}
		if u > maxDelta {
			maxDelta = u
		}
	}
	var forBitsN uint8
	if forOK {
		forBitsN = uint8(bits.Len64(maxDelta))
	}

	// Dictionary probe: sorted distinct values. sort.Float64s orders NaN
	// first; a NaN has no place in the code search, so a chunk holding one
	// is never dictionary-encoded.
	sortScratch = append(sortScratch[:0], vals...)
	sort.Float64s(sortScratch)
	dictOK := !math.IsNaN(sortScratch[0])
	card := 1
	for i := 1; i < n; i++ {
		if sortScratch[i] != sortScratch[i-1] {
			card++
		}
	}

	// Candidate payload sizes; pick the smallest, preferring RLE, then
	// dictionary, then FOR on ties (whole-run rejection beats per-code
	// comparison beats bit extraction).
	rawB := int64(n) * 8
	best, bestB := colRaw, rawB
	if rleB := int64(4 + runs*12); rleB < bestB {
		best, bestB = colRLE, rleB
	}
	if dictOK && card <= dictMaxCard {
		w := int64(2)
		if card <= 256 {
			w = 1
		}
		if dictB := 4 + int64(card)*8 + w*int64(n); dictB < bestB {
			best, bestB = colDict, dictB
		}
	}
	if forOK {
		if forB := 9 + int64(forWords(n, forBitsN))*8; forB < bestB {
			best, bestB = colFOR, forB
		}
	}

	switch best {
	case colRLE:
		c.kind = colRLE
		c.runVals = make([]float64, 0, runs)
		c.runLens = make([]uint32, 0, runs)
		cur, length := vals[0], uint32(1)
		for i := 1; i < n; i++ {
			if vals[i] == cur {
				length++
				continue
			}
			c.runVals = append(c.runVals, cur)
			c.runLens = append(c.runLens, length)
			cur, length = vals[i], 1
		}
		c.runVals = append(c.runVals, cur)
		c.runLens = append(c.runLens, length)
	case colDict:
		c.kind = colDict
		c.dict = make([]float64, 0, card)
		for i := 0; i < n; i++ {
			if i == 0 || sortScratch[i] != sortScratch[i-1] {
				c.dict = append(c.dict, sortScratch[i])
			}
		}
		if card <= 256 {
			c.codes8 = make([]uint8, n)
			for i, v := range vals {
				c.codes8[i] = uint8(dictCode(c.dict, v))
			}
		} else {
			c.codes16 = make([]uint16, n)
			for i, v := range vals {
				c.codes16[i] = uint16(dictCode(c.dict, v))
			}
		}
	case colFOR:
		c.kind = colFOR
		c.base = min
		c.forBits = forBitsN
		c.packed = make([]uint64, forWords(n, forBitsN))
		if forBitsN > 0 {
			w := uint(forBitsN)
			for i, v := range vals {
				d := uint64(v - min)
				bitPos := i * int(w)
				word, off := bitPos>>6, uint(bitPos&63)
				c.packed[word] |= d << off
				if off+w > 64 {
					c.packed[word+1] |= d >> (64 - off)
				}
			}
		}
	default:
		c.raw = append([]float64(nil), vals...)
	}
	return c, sortScratch
}

// dictCode returns the code of v in the sorted dictionary.
func dictCode(dict []float64, v float64) int {
	lo, hi := 0, len(dict)
	for lo < hi {
		mid := (lo + hi) / 2
		if dict[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dictCodeRange returns the half-open code interval [cLo, cHi) whose
// dictionary values fall inside [lo, hi].
func (c *column) dictCodeRange(lo, hi float64) (int, int) {
	cLo := dictCode(c.dict, lo) // first value >= lo
	cHi := sort.Search(len(c.dict), func(i int) bool { return c.dict[i] > hi })
	return cLo, cHi
}

// decodeInto decodes the whole column into dst[:n].
func (c *column) decodeInto(dst []float64) {
	switch c.kind {
	case colDict:
		if c.codes8 != nil {
			for i, code := range c.codes8 {
				dst[i] = c.dict[code]
			}
		} else {
			for i, code := range c.codes16 {
				dst[i] = c.dict[code]
			}
		}
	case colRLE:
		p := 0
		for r, v := range c.runVals {
			for k := uint32(0); k < c.runLens[r]; k++ {
				dst[p] = v
				p++
			}
		}
	case colFOR:
		if c.forBits == 0 {
			for i := 0; i < c.n; i++ {
				dst[i] = c.base
			}
			return
		}
		for i := 0; i < c.n; i++ {
			dst[i] = c.base + float64(forAt(c.packed, i, c.forBits))
		}
	default:
		copy(dst, c.raw)
	}
}

// forDeltaRange maps the value interval [lo, hi] onto the packed delta
// domain. ok is false when no delta can satisfy the predicate.
func (c *column) forDeltaRange(lo, hi float64) (dLo, dHi uint64, ok bool) {
	maxDelta := uint64(1)<<uint(c.forBits) - 1
	if c.forBits == 0 {
		maxDelta = 0
	}
	fLo := math.Ceil(lo - c.base)
	fHi := math.Floor(hi - c.base)
	if fHi < 0 || fLo > float64(maxDelta) {
		return 0, 0, false
	}
	if fLo < 0 {
		fLo = 0
	}
	dLo = uint64(fLo)
	if fHi >= float64(maxDelta) {
		dHi = maxDelta
	} else {
		dHi = uint64(fHi)
	}
	return dLo, dHi, dLo <= dHi
}

// The filter kernels below never branch on a row's predicate outcome. An
// interior range leaves the lower-bound test of each row a coin flip, which
// a branch predictor misses about half the time at any final selectivity;
// instead every row's index is stored at the output cursor and the cursor
// advances by the 0/1 outcome (b2i compiles to SETcc), so rejected rows are
// overwritten by the next candidate. Dictionary codes and FOR deltas fold
// the two-sided test into one unsigned comparison, x-lo <= hi-lo, which
// wraps below lo. RLE decides once per run, not per row.

// b2i converts a comparison outcome to 0 or 1 without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// growSel extends sel by n slots, reallocating (geometrically) only when
// its capacity is short, and returns the extended slice.
func growSel(sel []int32, n int) []int32 {
	need := len(sel) + n
	if need <= cap(sel) {
		return sel[:need]
	}
	grown := make([]int32, need, max(need, 2*cap(sel)))
	copy(grown, sel)
	return grown
}

// appendRange appends the indices [from, from+n) to sel.
func appendRange(sel []int32, from, n int) []int32 {
	base := len(sel)
	sel = growSel(sel, n)
	for k := range sel[base:] {
		sel[base+k] = int32(from + k)
	}
	return sel
}

// selectCodes writes to out the positions whose code lies in
// [lo, lo+span] and returns how many it kept; out must hold len(codes).
func selectCodes[T uint8 | uint16](codes []T, lo, span T, out []int32) int {
	k := 0
	for i, code := range codes {
		out[k] = int32(i)
		k += b2i(code-lo <= span)
	}
	return k
}

// refineCodes compacts sel in place to the positions whose code lies in
// [lo, lo+span] and returns how many it kept.
func refineCodes[T uint8 | uint16](codes []T, lo, span T, sel []int32) int {
	k := 0
	for _, i := range sel {
		sel[k] = i
		k += b2i(codes[i]-lo <= span)
	}
	return k
}

// filterAll appends to sel the indices in [0, n) whose value lies in
// [lo, hi], in ascending order, and returns the encoded bytes it decoded
// (the dictionary probe alone when the code range is empty or total; the
// whole payload when every position is tested).
func (c *column) filterAll(lo, hi float64, sel []int32) ([]int32, int64) {
	base := len(sel)
	var k int
	switch c.kind {
	case colDict:
		cLo, cHi := c.dictCodeRange(lo, hi)
		probe := int64(4) + int64(len(c.dict))*8
		if cLo >= cHi {
			return sel, probe
		}
		if cLo == 0 && cHi == len(c.dict) {
			return appendRange(sel, 0, c.n), probe
		}
		sel = growSel(sel, c.n)
		if c.codes8 != nil {
			k = selectCodes(c.codes8, uint8(cLo), uint8(cHi-1-cLo), sel[base:])
		} else {
			k = selectCodes(c.codes16, uint16(cLo), uint16(cHi-1-cLo), sel[base:])
		}
	case colRLE:
		start := 0
		for r, v := range c.runVals {
			length := int(c.runLens[r])
			if v >= lo && v <= hi {
				sel = appendRange(sel, start, length)
			}
			start += length
		}
		return sel, c.payloadBytes()
	case colFOR:
		dLo, dHi, ok := c.forDeltaRange(lo, hi)
		if !ok {
			return sel, 9 // header only: base + bit width
		}
		if c.forBits == 0 {
			return appendRange(sel, 0, c.n), 9
		}
		sel = growSel(sel, c.n)
		out, span := sel[base:], dHi-dLo
		for i := 0; i < c.n; i++ {
			out[k] = int32(i)
			k += b2i(forAt(c.packed, i, c.forBits)-dLo <= span)
		}
	default:
		sel = growSel(sel, c.n)
		out := sel[base:]
		for i, v := range c.raw {
			out[k] = int32(i)
			k += b2i(v >= lo) & b2i(v <= hi)
		}
	}
	return sel[:base+k], c.payloadBytes()
}

// refine filters sel in place, keeping indices whose value lies in [lo, hi],
// and returns the surviving prefix plus the encoded bytes it touched.
func (c *column) refine(lo, hi float64, sel []int32) ([]int32, int64) {
	var k int
	switch c.kind {
	case colDict:
		cLo, cHi := c.dictCodeRange(lo, hi)
		touched := int64(4) + int64(len(c.dict))*8 // dictionary probe
		if cLo >= cHi {
			return sel[:0], touched
		}
		if cLo == 0 && cHi == len(c.dict) {
			return sel, touched
		}
		if c.codes8 != nil {
			k = refineCodes(c.codes8, uint8(cLo), uint8(cHi-1-cLo), sel)
		} else {
			k = refineCodes(c.codes16, uint16(cLo), uint16(cHi-1-cLo), sel)
		}
		return sel[:k], touched + c.valueBytes(len(sel))
	case colRLE:
		ri, runEnd := 0, int32(c.runLens[0])
		runsTouched, lastRun, pass := 0, -1, 0
		for _, i := range sel {
			for i >= runEnd {
				ri++
				runEnd += int32(c.runLens[ri])
			}
			if ri != lastRun {
				runsTouched++
				lastRun = ri
				v := c.runVals[ri]
				pass = b2i(v >= lo) & b2i(v <= hi)
			}
			sel[k] = i
			k += pass
		}
		return sel[:k], int64(runsTouched) * 12
	case colFOR:
		dLo, dHi, ok := c.forDeltaRange(lo, hi)
		if !ok {
			return sel[:0], 0
		}
		if c.forBits == 0 {
			return sel, 0
		}
		span := dHi - dLo
		for _, i := range sel {
			sel[k] = i
			k += b2i(forAt(c.packed, int(i), c.forBits)-dLo <= span)
		}
	default:
		for _, i := range sel {
			v := c.raw[i]
			sel[k] = i
			k += b2i(v >= lo) & b2i(v <= hi)
		}
	}
	return sel[:k], c.valueBytes(len(sel))
}

// gather materializes value(sel[k]) into dst[k*stride+off] for every k and
// returns the encoded bytes it decoded: RLE pays per run touched (12 bytes
// each), the other encodings per value plus the metadata filterAll reads —
// the dictionary for dict columns, the 9-byte base and width header for FOR
// columns. sel must be ascending (selection vectors always are).
func (c *column) gather(sel []int32, dst []float64, stride, off int) int64 {
	switch c.kind {
	case colDict:
		if c.codes8 != nil {
			for k, i := range sel {
				dst[k*stride+off] = c.dict[c.codes8[i]]
			}
		} else {
			for k, i := range sel {
				dst[k*stride+off] = c.dict[c.codes16[i]]
			}
		}
		return 4 + int64(len(c.dict))*8 + c.valueBytes(len(sel))
	case colRLE:
		if len(sel) == 0 {
			return 0
		}
		ri, runEnd := 0, int32(c.runLens[0])
		runsTouched, lastRun := 0, -1
		for k, i := range sel {
			for i >= runEnd {
				ri++
				runEnd += int32(c.runLens[ri])
			}
			if ri != lastRun {
				runsTouched++
				lastRun = ri
			}
			dst[k*stride+off] = c.runVals[ri]
		}
		return int64(runsTouched) * 12
	case colFOR:
		if c.forBits == 0 {
			for k := range sel {
				dst[k*stride+off] = c.base
			}
			return 9
		}
		for k, i := range sel {
			dst[k*stride+off] = c.base + float64(forAt(c.packed, int(i), c.forBits))
		}
		return 9 + c.valueBytes(len(sel))
	default:
		for k, i := range sel {
			dst[k*stride+off] = c.raw[i]
		}
	}
	return c.valueBytes(len(sel))
}
