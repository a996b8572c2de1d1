package sqlrew

import (
	"fmt"
	"strings"
	"sync"

	"paw/internal/geom"
)

// Rewriter converts WHERE clauses over a fixed numeric schema into range
// queries (Fig. 4, step 1).
type Rewriter struct {
	cols    map[string]int
	dims    int
	parsers sync.Pool // *parser, reused across calls
}

// New builds a rewriter for the given column names; the i-th name maps to
// query dimension i. Matching is case-insensitive.
func New(columns []string) (*Rewriter, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("sqlrew: empty schema")
	}
	m := make(map[string]int, len(columns))
	for i, c := range columns {
		key := strings.ToLower(c)
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("sqlrew: duplicate column %q", c)
		}
		m[key] = i
	}
	return &Rewriter{cols: m, dims: len(columns)}, nil
}

// Rewrite parses the WHERE clause and returns the equivalent set of
// *disjoint* range queries: later disjuncts are geometrically subtracted
// from earlier ones, as in the paper's OR example (§III-B). Unconstrained
// dimensions are unbounded (±Inf). An empty clause means "everything" and
// yields one universe box.
func (r *Rewriter) Rewrite(where string) ([]geom.Box, error) {
	if strings.TrimSpace(where) == "" {
		return []geom.Box{geom.UniverseBox(r.dims)}, nil
	}
	flat, n, err := r.parse(where)
	if err != nil || n == 0 {
		return nil, err
	}
	raw := make([]geom.Box, n)
	for i := range raw {
		b := flat[2*r.dims*i : 2*r.dims*(i+1)]
		raw[i] = geom.Box{Lo: b[:r.dims:r.dims], Hi: b[r.dims:]}
	}
	if n <= 1 {
		return raw, nil
	}
	// Disjointify: each disjunct minus the union of its predecessors.
	out := raw[:1:1]
	for i := 1; i < n; i++ {
		out = append(out, geom.SubtractAll(raw[i], raw[:i])...)
	}
	return out, nil
}

// RewriteSQL accepts a full "SELECT ... FROM ... [WHERE ...]" statement and
// rewrites its WHERE clause (everything after the last WHERE keyword, matched
// case-insensitively). Statements without WHERE scan everything.
func (r *Rewriter) RewriteSQL(stmt string) ([]geom.Box, error) {
	idx := lastIndexWhere(stmt)
	if idx < 0 {
		return []geom.Box{geom.UniverseBox(r.dims)}, nil
	}
	return r.Rewrite(stmt[idx+len("WHERE"):])
}

// lastIndexWhere returns the byte offset of the last ASCII-case-insensitive
// occurrence of "WHERE" in s, or -1. It searches s itself, so the offset is
// valid in s even when case mapping would change byte lengths elsewhere in
// the statement (ſ and ı upper-case to one-byte letters).
func lastIndexWhere(s string) int {
	const kw = "where"
	for i := len(s) - len(kw); i >= 0; i-- {
		j := 0
		for j < len(kw) && s[i+j]|0x20 == kw[j] {
			j++
		}
		if j == len(kw) {
			return i
		}
	}
	return -1
}

// Dims returns the schema dimensionality.
func (r *Rewriter) Dims() int { return r.dims }
