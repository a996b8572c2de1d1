package layout

import (
	"fmt"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/parbuild"
	"paw/internal/rtree"
)

// ID identifies a physical (leaf) partition.
type ID int

// Partition is a leaf of the partition tree: a physical block-set in the
// storage layer. SampleRows holds the layout-construction sample rows that
// fell into the partition; FullRows is set by routing the complete dataset.
type Partition struct {
	ID   ID
	Desc Descriptor

	// SampleRows are indices into the construction sample.
	SampleRows []int
	// FullRows is the number of records of the full dataset routed here.
	FullRows int64
	// RowBytes is the simulated size of one record.
	RowBytes int64

	// Precise is the optional precise descriptor (§V-A): a small set of
	// MBRs that collectively cover the partition's records. When non-empty
	// the master may skip the partition even if Desc intersects the query.
	Precise []geom.Box
}

// Bytes returns the partition's physical size.
func (p *Partition) Bytes() int64 { return p.FullRows * p.RowBytes }

// PruneWithPrecise reports whether the precise descriptor proves the query
// cannot touch this partition (no MBR intersects q). With no precise
// descriptor installed it always returns false.
func (p *Partition) PruneWithPrecise(q geom.Box) bool {
	if len(p.Precise) == 0 {
		return false
	}
	for _, m := range p.Precise {
		if m.Intersects(q) {
			return false
		}
	}
	return true
}

// Node is a vertex of the partition tree (Fig. 10). Internal nodes keep only
// descriptors for query routing; leaves own physical partitions.
type Node struct {
	Desc     Descriptor
	Children []*Node
	Part     *Partition // non-nil iff leaf

	// childIndex accelerates point routing through wide fan-outs
	// (Multi-Group nodes): a packed box index over the children's MBRs,
	// built at Seal/Decode, nil for narrow nodes. Derived state — never
	// serialised, read-only after sealing.
	childIndex *rtree.BoxIndex
}

// AcceptPoint implements rtree.PointAccepter for the child index: candidate
// child i truly contains p. Exported only as index plumbing.
func (n *Node) AcceptPoint(i int, p geom.Point) bool { return n.Children[i].Desc.Contains(p) }

// IsLeaf reports whether the node is a physical partition.
func (n *Node) IsLeaf() bool { return n.Part != nil }

// Walk visits every node in pre-order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Leaves returns the leaf nodes in pre-order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// routeDown descends from n to the leaf whose region contains p. Children
// are tested in order, so builders must place irregular partitions after the
// grouped partitions carved out of them (boundary points then resolve to the
// group). Returns nil when no child accepts the point. Wide nodes descend
// through their child index, which preserves the first-matching-child
// contract (packed indexes return the smallest accepted index).
func (n *Node) routeDown(p geom.Point) *Partition {
	cur := n
	for !cur.IsLeaf() {
		var next *Node
		if cur.childIndex != nil {
			if i := cur.childIndex.FirstContaining(p, cur); i >= 0 {
				next = cur.Children[i]
			}
		} else {
			for _, c := range cur.Children {
				if c.Desc.Contains(p) {
					next = c
					break
				}
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur.Part
}

// routeDownLinear is the retained linear reference for routeDown: every
// level scans its children in order with no index. Differential tests and
// the routing benchmark compare against it.
func (n *Node) routeDownLinear(p geom.Point) *Partition {
	cur := n
	for !cur.IsLeaf() {
		var next *Node
		for _, c := range cur.Children {
			if c.Desc.Contains(p) {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur.Part
}

// Layout is a complete partition layout over a dataset.
type Layout struct {
	// Method records which algorithm produced the layout ("paw",
	// "qd-tree", "kd-tree"), for reporting.
	Method string
	// Root is the partition tree; Root.Desc covers the whole domain.
	Root *Node
	// Parts are the physical partitions (the tree's leaves), indexed by ID.
	Parts []*Partition
	// RowBytes is the simulated record size.
	RowBytes int64
	// TotalBytes is the routed dataset's total size.
	TotalBytes int64
	// Unrouted counts records no leaf accepted (should be 0; kept as a
	// safety signal for floating-point edge cases).
	Unrouted int64

	// index is the partition-level routing index over the descriptor MBRs,
	// built at Seal/Decode (see index.go). Derived, immutable state: nil on
	// hand-assembled layouts, in which case every query path falls back to
	// the linear reference.
	index *rtree.BoxIndex
}

// Seal numbers the leaves, wires Parts, builds the routing index and returns
// the layout. Builders call it once the tree is final.
func Seal(method string, root *Node, rowBytes int64) *Layout {
	l := &Layout{Method: method, Root: root, RowBytes: rowBytes}
	for _, leaf := range root.Leaves() {
		leaf.Part.ID = ID(len(l.Parts))
		leaf.Part.RowBytes = rowBytes
		l.Parts = append(l.Parts, leaf.Part)
	}
	l.buildIndex()
	return l
}

// Route assigns every record of data to a leaf partition, setting FullRows
// and TotalBytes. It reproduces the paper's construction protocol: the
// logical layout is computed on a sample, then the full dataset is routed
// through it (§VI-A). Route may be called repeatedly; counts are reset.
func (l *Layout) Route(data *dataset.Dataset) { l.RouteParallel(data, 1) }

// hoistColumns caches the dataset's contiguous column slices so routing hot
// loops probe cols[d][r] directly instead of calling data.At per (row, dim).
func hoistColumns(data *dataset.Dataset) [][]float64 {
	cols := make([][]float64, data.Dims())
	for d := range cols {
		cols[d] = data.Column(d)
	}
	return cols
}

// Routing is one pass of a whole dataset through a layout: the partition of
// every row plus the per-partition row counts.
type Routing struct {
	// Part[r] is the ID of the partition row r routes to, or -1 when no
	// leaf accepted it.
	Part []int32
	// Counts[id] is the number of rows routed to partition id.
	Counts []int64
	// Unrouted is the number of rows no leaf accepted.
	Unrouted int64
}

// Buckets groups the routed rows by partition with a counting sort:
// partition id holds rows[start[id]:start[id+1]], in ascending row order.
// Unrouted rows are left out.
func (r *Routing) Buckets() (rows, start []int) {
	start = make([]int, len(r.Counts)+1)
	for id, c := range r.Counts {
		start[id+1] = start[id] + int(c)
	}
	rows = make([]int, start[len(r.Counts)])
	next := append([]int(nil), start[:len(r.Counts)]...)
	for i, id := range r.Part {
		if id >= 0 {
			rows[next[id]] = i
			next[id]++
		}
	}
	return rows, start
}

// routeChunk is the row count below which routing stays on one goroutine.
const routeChunk = 4096

// Assign routes every row of data through the layout in one pass fanned out
// over a pool of up to workers goroutines (workers <= 0 selects
// GOMAXPROCS), without touching the layout. The result is identical at any
// worker count. It is the pass behind RouteParallel, for callers that must
// not write to a layout other goroutines are serving.
func (l *Layout) Assign(data *dataset.Dataset, workers int) Routing {
	n := data.NumRows()
	nParts := len(l.Parts)
	r := Routing{Part: make([]int32, n), Counts: make([]int64, nParts)}
	cols := hoistColumns(data)
	pool := parbuild.New(workers)
	chunkCounts := make([][]int64, pool.Workers())
	chunkUnrouted := make([]int64, pool.Workers())
	chunks := pool.FanChunks(pool.RootSlot(), n, routeChunk, func(c, lo, hi, _ int) {
		counts := make([]int64, nParts)
		var unrouted int64
		pt := make(geom.Point, len(cols))
		for i := lo; i < hi; i++ {
			for d, col := range cols {
				pt[d] = col[i]
			}
			if part := l.Root.routeDown(pt); part != nil {
				r.Part[i] = int32(part.ID)
				counts[part.ID]++
			} else {
				r.Part[i] = -1
				unrouted++
			}
		}
		chunkCounts[c], chunkUnrouted[c] = counts, unrouted
	})
	for c := 0; c < chunks; c++ {
		for id, k := range chunkCounts[c] {
			r.Counts[id] += k
		}
		r.Unrouted += chunkUnrouted[c]
	}
	return r
}

// RouteParallel is Route with the row scan fanned out over up to workers
// goroutines (see Assign); it sets FullRows, Unrouted and TotalBytes exactly
// as the serial scan would, and returns the routing so callers can bucket
// rows by partition without routing them again. Routing dominates layout
// materialisation time (Table II), so the block store uses this on
// multi-core hosts.
func (l *Layout) RouteParallel(data *dataset.Dataset, workers int) Routing {
	r := l.Assign(data, workers)
	for id, p := range l.Parts {
		p.FullRows = r.Counts[id]
	}
	l.Unrouted = r.Unrouted
	l.TotalBytes = int64(data.NumRows()) * l.RowBytes
	return r
}

// RouteIndices routes only the given rows; used to route record subsets to
// build precise descriptors per partition.
func (l *Layout) RouteIndices(data *dataset.Dataset, idx []int) map[ID][]int {
	out := make(map[ID][]int)
	cols := hoistColumns(data)
	pt := make(geom.Point, len(cols))
	for _, i := range idx {
		for d, col := range cols {
			pt[d] = col[i]
		}
		if part := l.Root.routeDown(pt); part != nil {
			out[part.ID] = append(out[part.ID], i)
		}
	}
	return out
}

// NumPartitions returns the number of physical partitions.
func (l *Layout) NumPartitions() int { return len(l.Parts) }

// String summarises the layout.
func (l *Layout) String() string {
	irr := 0
	for _, p := range l.Parts {
		if p.Desc.Kind() == KindIrregular {
			irr++
		}
	}
	return fmt.Sprintf("%s layout: %d partitions (%d irregular), %d bytes",
		l.Method, len(l.Parts), irr, l.TotalBytes)
}
