package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/workload"
)

// stmt is one statement of a stream. want is the oracle row count, or -1
// when the statement is outside the checked subset.
type stmt struct {
	sql  string
	box  geom.Box
	want int
}

// stream hands out a workload's statements in a fixed order determined by
// the seed; concurrent clients share it.
//
// A fresh stream is an endless sequence of distinct δ-similar QF
// statements: block b is workload.Future(QH, δ, 1, seed-derived) — one
// perturbed copy of every historical query — so no statement repeats and
// every cache misses. Its oracle checks one seeded statement per block, for
// the first checkedBlocks blocks, computed before the timed window.
//
// A hot stream draws Zipf-skewed ranks, in a seeded sequence, over a fixed
// pool of QF statements; the oracle covers the whole pool, so every answer
// is checked.
type stream struct {
	names []string

	mu    sync.Mutex
	n     int
	hist  workload.Workload
	delta float64
	seed  int64
	block workload.Workload
	bno   int
	// sampleWant[b] is the oracle count of block b's checked statement.
	sampleWant []int

	pool []stmt
	zipf *rand.Zipf
}

func blockSeed(seed int64, b int) int64 { return seed*1_000_003 + int64(b) }

// sampleOffset picks block b's checked statement (splitmix64 of seed and b).
func sampleOffset(seed int64, b int) int {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(b)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % histQueries)
}

// newStream builds the workload's stream and its oracle. checkedBlocks
// bounds the fresh-stream oracle (one CountInBox per block).
func newStream(spec workloadSpec, o *oracle, hist workload.Workload, delta float64, seed int64, checkedBlocks int) *stream {
	s := &stream{names: o.data.Names(), hist: hist, delta: delta, seed: seed, bno: -1}
	if spec.hot {
		// The pool and each statement's popularity rank are fixed, like the
		// table: which statements are hot decides the cache hits and the
		// scan bytes. The seed draws the sequence.
		pool := rand.New(rand.NewSource(histSeed))
		qf := workload.Future(hist, delta, hotPool/len(hist), histSeed)
		boxes := make([]geom.Box, len(qf))
		for i, j := range pool.Perm(len(qf)) {
			boxes[i] = qf[j].Box
		}
		want := o.countAll(boxes)
		for i, b := range boxes {
			s.pool = append(s.pool, stmt{sql: renderSQL(s.names, b), box: b, want: want[i]})
		}
		s.zipf = rand.NewZipf(rand.New(rand.NewSource(seed)), hotZipfS, 1, uint64(len(s.pool)-1))
		return s
	}
	boxes := make([]geom.Box, checkedBlocks)
	for b := range boxes {
		boxes[b] = workload.Future(hist, delta, 1, blockSeed(seed, b))[sampleOffset(seed, b)].Box
	}
	s.sampleWant = o.countAll(boxes)
	return s
}

// next returns the stream's next statement.
func (s *stream) next() stmt {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.n
	s.n++
	if s.pool != nil {
		return s.pool[s.zipf.Uint64()]
	}
	b, off := i/len(s.hist), i%len(s.hist)
	if b != s.bno {
		s.block = workload.Future(s.hist, s.delta, 1, blockSeed(s.seed, b))
		s.bno = b
	}
	q := stmt{sql: renderSQL(s.names, s.block[off].Box), box: s.block[off].Box, want: -1}
	if b < len(s.sampleWant) && off == sampleOffset(s.seed, b) {
		q.want = s.sampleWant[b]
	}
	return q
}

// renderSQL writes a box as a conjunctive range statement. Bounds use the
// shortest representation that parses back to the same float, so the
// rewritten box equals the generated one.
func renderSQL(names []string, b geom.Box) string {
	buf := make([]byte, 0, 40+len(names)*60)
	buf = append(buf, "SELECT * FROM t WHERE "...)
	for d, n := range names {
		if d > 0 {
			buf = append(buf, " AND "...)
		}
		buf = append(buf, n...)
		buf = append(buf, " >= "...)
		buf = strconv.AppendFloat(buf, b.Lo[d], 'g', -1, 64)
		buf = append(buf, " AND "...)
		buf = append(buf, n...)
		buf = append(buf, " <= "...)
		buf = strconv.AppendFloat(buf, b.Hi[d], 'g', -1, 64)
	}
	return string(buf)
}

// oracle answers row counts with dataset.CountInBox, restricted to the rows
// whose first attribute lies in the box's first range (rows outside it
// cannot match, so the count is exact).
type oracle struct {
	data  *dataset.Dataset
	order []int
	keys  []float64
}

func newOracle(data *dataset.Dataset) *oracle {
	col := data.Column(0)
	order := make([]int, len(col))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return col[order[i]] < col[order[j]] })
	keys := make([]float64, len(order))
	for i, r := range order {
		keys[i] = col[r]
	}
	return &oracle{data: data, order: order, keys: keys}
}

func (o *oracle) count(b geom.Box) int {
	lo := sort.SearchFloat64s(o.keys, b.Lo[0])
	hi := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] > b.Hi[0] })
	if lo >= hi {
		return 0
	}
	return o.data.CountInBox(b, o.order[lo:hi])
}

// countAll counts every box, one goroutine per usable CPU.
func (o *oracle) countAll(boxes []geom.Box) []int {
	out := make([]int, len(boxes))
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(boxes); i += n {
				out[i] = o.count(boxes[i])
			}
		}(g)
	}
	wg.Wait()
	return out
}
