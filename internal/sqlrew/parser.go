package sqlrew

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// The parser evaluates the WHERE clause straight into disjunctive normal
// form, with each conjunction already intersected into a box: there is no
// AST. NOT is pushed down while parsing (De Morgan's laws and operator
// negation, carried as the neg flag), so a negated OR is parsed as an AND of
// negated terms and vice versa.
//
// Boxes live in one flat arena, d lows then d highs per box. Every parse
// function leaves its result as the top boxes of the arena and returns how
// many there are: an OR's terms are thereby already adjacent (concatenation
// is free), and an AND's cross product is written above its two operands and
// then moved down over them. A flat conjunction therefore intersects each
// predicate into one box in place. Parsers are pooled per Rewriter, so the
// token and arena buffers are reused across statements.
type parser struct {
	r    *Rewriter
	toks []token
	pos  int
	d    int
	// arena holds the boxes, 2*d floats each.
	arena []float64
	// semErr is the first semantic error in text order (unknown column,
	// unsupported operator). It is reported only once the clause has parsed,
	// so syntax errors take precedence.
	semErr error
}

// parse lexes and parses where against r's schema into its DNF: n boxes, one
// per satisfiable conjunction in DNF order, returned as a fresh slice of
// 2*d floats per box.
func (r *Rewriter) parse(where string) (boxes []float64, n int, err error) {
	p, _ := r.parsers.Get().(*parser)
	if p == nil {
		p = &parser{r: r, d: r.dims}
	}
	defer func() {
		clear(p.toks) // drop the references into where
		p.toks, p.arena, p.pos, p.semErr = p.toks[:0], p.arena[:0], 0, nil
		r.parsers.Put(p)
	}()
	if p.toks, err = lex(where, p.toks); err != nil {
		return nil, 0, err
	}
	if n, err = p.parseOr(false); err != nil {
		return nil, 0, err
	}
	if p.peek().kind != tokEOF {
		return nil, 0, fmt.Errorf("sqlrew: unexpected %s at position %d", p.peek(), p.peek().pos)
	}
	if p.semErr != nil {
		return nil, 0, p.semErr
	}
	return append([]float64(nil), p.arena...), n, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.peek().kind != kind {
		return token{}, fmt.Errorf("sqlrew: expected %s, found %s at position %d", what, p.peek(), p.peek().pos)
	}
	return p.next(), nil
}

// parseOr parses term {OR term}. Un-negated, the terms' DNFs concatenate;
// negated (NOT (a OR b) = NOT a AND NOT b) they cross-multiply.
func (p *parser) parseOr(neg bool) (int, error) {
	n, err := p.parseAnd(neg)
	if err != nil {
		return 0, err
	}
	for p.peek().kind == tokOr {
		p.next()
		m, err := p.parseAnd(neg)
		if err != nil {
			return 0, err
		}
		n = p.combine(n, m, neg)
	}
	return n, nil
}

// parseAnd parses factor {AND factor}. Un-negated, the factors' DNFs
// cross-multiply; negated (NOT (a AND b) = NOT a OR NOT b) they concatenate.
func (p *parser) parseAnd(neg bool) (int, error) {
	n, err := p.parseUnary(neg)
	if err != nil {
		return 0, err
	}
	for p.peek().kind == tokAnd {
		p.next()
		m, err := p.parseUnary(neg)
		if err != nil {
			return 0, err
		}
		n = p.combine(n, m, !neg)
	}
	return n, nil
}

// combine joins the top two DNFs of the arena (n boxes, then m boxes):
// their product when and is set, their concatenation otherwise.
func (p *parser) combine(n, m int, and bool) int {
	if !and {
		return n + m
	}
	return p.product(n, m)
}

func (p *parser) parseUnary(neg bool) (int, error) {
	switch p.peek().kind {
	case tokNot:
		p.next()
		return p.parseUnary(!neg)
	case tokLParen:
		p.next()
		n, err := p.parseOr(neg)
		if err != nil {
			return 0, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return 0, err
		}
		return n, nil
	default:
		return p.parsePredicate(neg)
	}
}

// parsePredicate accepts `col OP number`, `number OP col`, and
// `col BETWEEN a AND b`, and pushes the boxes of the (possibly negated)
// predicate.
func (p *parser) parsePredicate(neg bool) (int, error) {
	switch p.peek().kind {
	case tokIdent:
		col := p.next().text
		switch p.peek().kind {
		case tokBetween:
			p.next()
			lo, err := p.expect(tokNumber, "number")
			if err != nil {
				return 0, err
			}
			if _, err := p.expect(tokAnd, "AND"); err != nil {
				return 0, err
			}
			hi, err := p.expect(tokNumber, "number")
			if err != nil {
				return 0, err
			}
			// col >= lo AND col <= hi.
			n := p.pushPred(col, ">=", lo.num, neg)
			return p.combine(n, p.pushPred(col, "<=", hi.num, neg), !neg), nil
		case tokOp:
			op := p.next().text
			v, err := p.expect(tokNumber, "number")
			if err != nil {
				return 0, err
			}
			return p.pushPred(col, op, v.num, neg), nil
		default:
			return 0, fmt.Errorf("sqlrew: expected comparison after column %q at position %d", col, p.peek().pos)
		}
	case tokNumber:
		v := p.next()
		op, err := p.expect(tokOp, "comparison operator")
		if err != nil {
			return 0, err
		}
		colTok, err := p.expect(tokIdent, "column name")
		if err != nil {
			return 0, err
		}
		return p.pushPred(colTok.text, flipOp(op.text), v.num, neg), nil
	default:
		return 0, fmt.Errorf("sqlrew: expected predicate, found %s at position %d", p.peek(), p.peek().pos)
	}
}

// flipOp mirrors an operator across its operands: 10 <= A means A >= 10.
func flipOp(op string) string {
	switch op {
	case "<=":
		return ">="
	case ">=":
		return "<="
	case "<":
		return ">"
	case ">":
		return "<"
	default: // = and <> are symmetric
		return op
	}
}

// negateOp returns the operator of NOT (col op v).
func negateOp(op string) string {
	switch op {
	case ">=":
		return "<"
	case "<=":
		return ">"
	case ">":
		return "<="
	case "<":
		return ">="
	case "=":
		return "<>"
	case "<>":
		return "="
	default:
		return op
	}
}

// pushPred pushes the boxes of `col op v` (negated: of NOT (col op v)) and
// returns their count: one box, or two for <> (below v, then above it).
// Strict bounds step to the adjacent float. A predicate on an unknown column
// or with an unsupported operator records the semantic error and pushes the
// universe box, so parsing can go on to find any syntax error first.
func (p *parser) pushPred(col, op string, v float64, neg bool) int {
	if neg {
		op = negateOp(op)
	}
	dim, ok := p.r.cols[strings.ToLower(col)] // no copy when col is lower-case ASCII
	if !ok {
		p.fail(fmt.Errorf("sqlrew: unknown column %q", col))
		p.pushUniverse()
		return 1
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	switch op {
	case ">=":
		lo = v
	case ">":
		lo = math.Nextafter(v, math.Inf(1))
	case "<=":
		hi = v
	case "<":
		hi = math.Nextafter(v, math.Inf(-1))
	case "=":
		lo, hi = v, v
	case "<>":
		p.pushUniverse()
		p.arena[len(p.arena)-p.d+dim] = math.Nextafter(v, math.Inf(-1))
		p.pushUniverse()
		p.arena[len(p.arena)-2*p.d+dim] = math.Nextafter(v, math.Inf(1))
		return 2
	default:
		p.fail(fmt.Errorf("sqlrew: unsupported operator %q", op))
		p.pushUniverse()
		return 1
	}
	p.pushUniverse()
	p.arena[len(p.arena)-2*p.d+dim] = lo
	p.arena[len(p.arena)-p.d+dim] = hi
	return 1
}

func (p *parser) fail(err error) {
	if p.semErr == nil {
		p.semErr = err
	}
}

// pushUniverse pushes the unbounded box.
func (p *parser) pushUniverse() {
	for i := 0; i < p.d; i++ {
		p.arena = append(p.arena, math.Inf(-1))
	}
	for i := 0; i < p.d; i++ {
		p.arena = append(p.arena, math.Inf(1))
	}
}

// product replaces the top two DNFs of the arena (a: n boxes, then b: m
// boxes) with their cross product in DNF order — for each box of a, its
// intersection with each box of b — dropping empty intersections. It
// returns the product's box count.
func (p *parser) product(n, m int) int {
	w := 2 * p.d
	top := len(p.arena)
	aOff, bOff := top-(n+m)*w, top-m*w
	if n == 1 && m == 1 {
		// The common case, a conjunction growing by one predicate: intersect
		// in place.
		a, b := p.arena[aOff:bOff], p.arena[bOff:top]
		p.arena = p.arena[:bOff]
		if !intersect(a, a, b, p.d) {
			p.arena = p.arena[:aOff]
			return 0
		}
		return 1
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			p.arena = slices.Grow(p.arena, w)[:len(p.arena)+w]
			a := p.arena[aOff+i*w : aOff+(i+1)*w]
			b := p.arena[bOff+j*w : bOff+(j+1)*w]
			dst := p.arena[len(p.arena)-w:]
			if intersect(dst, a, b, p.d) {
				k++
			} else {
				p.arena = p.arena[:len(p.arena)-w]
			}
		}
	}
	p.arena = append(p.arena[:aOff], p.arena[top:]...)
	return k
}

// intersect writes a ∩ b into dst (which may alias a) and reports whether
// the intersection is non-empty. Boxes are d lows then d highs.
func intersect(dst, a, b []float64, d int) bool {
	ok := true
	for i := 0; i < d; i++ {
		lo := math.Max(a[i], b[i])
		hi := math.Min(a[d+i], b[d+i])
		dst[i], dst[d+i] = lo, hi
		if lo > hi {
			ok = false
		}
	}
	return ok
}
