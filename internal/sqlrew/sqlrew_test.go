package sqlrew

import (
	"math"
	"math/rand"
	"testing"

	"paw/internal/geom"
)

func mustNew(t *testing.T, cols ...string) *Rewriter {
	t.Helper()
	r, err := New(cols)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("A >= 10 AND b_2 <= 5.5e2 OR (C < -3)", nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokOp, tokNumber, tokAnd, tokIdent, tokOp, tokNumber,
		tokOr, tokLParen, tokIdent, tokOp, tokNumber, tokRParen, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %d, want %d (%s)", i, toks[i].kind, k, toks[i])
		}
	}
	if toks[6].num != 550 {
		t.Errorf("5.5e2 parsed as %v", toks[6].num)
	}
	if toks[11].num != -3 {
		t.Errorf("-3 parsed as %v", toks[11].num)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("A >= #", nil); err == nil {
		t.Error("bad character must error")
	}
	if _, err := lex("A >= 1.2.3", nil); err == nil {
		t.Error("bad number must error")
	}
}

func TestRewriteSimpleAnd(t *testing.T) {
	// The paper's example: WHERE A>=10 AND B<=50 → [10,∞)×(−∞,50].
	r := mustNew(t, "A", "B")
	boxes, err := r.Rewrite("A >= 10 AND B <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	b := boxes[0]
	if b.Lo[0] != 10 || !math.IsInf(b.Hi[0], 1) {
		t.Errorf("dim A = [%v, %v]", b.Lo[0], b.Hi[0])
	}
	if !math.IsInf(b.Lo[1], -1) || b.Hi[1] != 50 {
		t.Errorf("dim B = [%v, %v]", b.Lo[1], b.Hi[1])
	}
}

func TestRewriteOrDisjoint(t *testing.T) {
	// The paper's OR example: A>=10 OR B<=50 decomposes into the disjoint
	// [10,∞)×(−∞,∞) and (−∞,10)×(−∞,50].
	r := mustNew(t, "A", "B")
	boxes, err := r.Rewrite("A >= 10 OR B <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 2 {
		t.Fatalf("got %d boxes, want 2", len(boxes))
	}
	// Disjointness (no interior overlap).
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if inter, ok := boxes[i].Intersection(boxes[j]); ok && inter.Volume() > 0 {
				t.Errorf("boxes %d and %d overlap", i, j)
			}
		}
	}
	// Semantic equivalence on sample points.
	check := func(a, b float64, want bool) {
		p := geom.Point{a, b}
		got := false
		for _, bx := range boxes {
			if bx.Contains(p) {
				got = true
				break
			}
		}
		if got != want {
			t.Errorf("point (%v,%v): in-union=%v, want %v", a, b, got, want)
		}
	}
	check(10, 100, true) // A>=10
	check(5, 50, true)   // B<=50
	check(5, 51, false)  // neither
	check(15, 20, true)  // both
}

func TestRewriteBetween(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x BETWEEN 3 AND 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || boxes[0].Lo[0] != 3 || boxes[0].Hi[0] != 7 {
		t.Errorf("BETWEEN = %v", boxes)
	}
}

func TestRewriteStrictOps(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x > 3 AND x < 7")
	if err != nil {
		t.Fatal(err)
	}
	b := boxes[0]
	if !(b.Lo[0] > 3) || !(b.Hi[0] < 7) {
		t.Errorf("strict bounds not honoured: %v", b)
	}
	if b.Contains(geom.Point{3}) || b.Contains(geom.Point{7}) {
		t.Error("strict endpoints must be excluded")
	}
	if !b.Contains(geom.Point{3.0000001}) {
		t.Error("interior must be included")
	}
}

func TestRewriteEquality(t *testing.T) {
	r := mustNew(t, "x", "y")
	boxes, err := r.Rewrite("x = 5")
	if err != nil {
		t.Fatal(err)
	}
	if boxes[0].Lo[0] != 5 || boxes[0].Hi[0] != 5 {
		t.Errorf("equality = %v", boxes[0])
	}
}

func TestRewriteNotEqual(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x <> 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 2 {
		t.Fatalf("<> must produce 2 disjoint boxes, got %d", len(boxes))
	}
	for _, b := range boxes {
		if b.Contains(geom.Point{5}) {
			t.Error("<> boxes must exclude the value")
		}
	}
}

func TestRewriteNot(t *testing.T) {
	r := mustNew(t, "x", "y")
	boxes, err := r.Rewrite("NOT (x >= 10 AND y >= 10)")
	if err != nil {
		t.Fatal(err)
	}
	// De Morgan: x<10 OR y<10, as 2 disjoint boxes.
	in := func(a, b float64) bool {
		for _, bx := range boxes {
			if bx.Contains(geom.Point{a, b}) {
				return true
			}
		}
		return false
	}
	if !in(5, 100) || !in(100, 5) || in(10, 10) || in(20, 20) {
		t.Errorf("NOT rewrite wrong: %v", boxes)
	}
}

func TestRewriteFlippedOperands(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("10 <= x")
	if err != nil {
		t.Fatal(err)
	}
	if boxes[0].Lo[0] != 10 {
		t.Errorf("flipped operand: %v", boxes[0])
	}
	boxes, err = r.Rewrite("10 > x")
	if err != nil {
		t.Fatal(err)
	}
	if !(boxes[0].Hi[0] < 10) {
		t.Errorf("flipped strict operand: %v", boxes[0])
	}
}

func TestRewriteUnsatisfiable(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x > 10 AND x < 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 0 {
		t.Errorf("unsatisfiable clause produced %v", boxes)
	}
}

func TestRewriteErrors(t *testing.T) {
	r := mustNew(t, "x")
	for _, bad := range []string{
		"z >= 5",        // unknown column
		"x >=",          // missing value
		"x 5",           // missing operator
		"(x >= 5",       // unbalanced paren
		"x >= 5 AND",    // dangling AND
		"x BETWEEN 3 7", // missing AND
		"AND x >= 5",    // leading AND
	} {
		if _, err := r.Rewrite(bad); err == nil {
			t.Errorf("clause %q must error", bad)
		}
	}
	if _, err := New(nil); err == nil {
		t.Error("empty schema must error")
	}
	if _, err := New([]string{"a", "A"}); err == nil {
		t.Error("duplicate (case-insensitive) columns must error")
	}
}

func TestRewriteEmptyAndSQL(t *testing.T) {
	r := mustNew(t, "x", "y")
	boxes, err := r.Rewrite("   ")
	if err != nil || len(boxes) != 1 {
		t.Fatalf("empty clause: %v, %v", boxes, err)
	}
	if !boxes[0].Contains(geom.Point{1e18, -1e18}) {
		t.Error("empty clause must scan everything")
	}
	boxes, err = r.RewriteSQL("SELECT * FROM t WHERE x >= 4")
	if err != nil || len(boxes) != 1 || boxes[0].Lo[0] != 4 {
		t.Fatalf("RewriteSQL: %v, %v", boxes, err)
	}
	boxes, err = r.RewriteSQL("SELECT * FROM t")
	if err != nil || len(boxes) != 1 {
		t.Fatalf("RewriteSQL without WHERE: %v, %v", boxes, err)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	r := mustNew(t, "Price")
	boxes, err := r.Rewrite("pRiCe between 1 and 2 and PRICE >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || boxes[0].Lo[0] != 1.5 || boxes[0].Hi[0] != 2 {
		t.Errorf("case-insensitive rewrite: %v", boxes)
	}
}

// TestDisjointUnionEquivalence: for random DNF clauses, the disjoint boxes'
// union must classify random points exactly like direct predicate
// evaluation.
func TestDisjointUnionEquivalence(t *testing.T) {
	r := mustNew(t, "a", "b")
	rng := rand.New(rand.NewSource(9))
	clauses := []string{
		"a >= 3 OR b <= 7",
		"a <= 4 OR a >= 6 OR b = 5",
		"(a >= 2 AND b >= 2) OR (a <= 8 AND b <= 1)",
		"NOT (a > 5) OR b > 9",
		"a <> 5 AND b >= 2",
	}
	evals := []func(a, b float64) bool{
		func(a, b float64) bool { return a >= 3 || b <= 7 },
		func(a, b float64) bool { return a <= 4 || a >= 6 || b == 5 },
		func(a, b float64) bool { return (a >= 2 && b >= 2) || (a <= 8 && b <= 1) },
		func(a, b float64) bool { return !(a > 5) || b > 9 },
		func(a, b float64) bool { return a != 5 && b >= 2 },
	}
	for ci, clause := range clauses {
		boxes, err := r.Rewrite(clause)
		if err != nil {
			t.Fatalf("clause %q: %v", clause, err)
		}
		// Pairwise interior-disjoint.
		for i := range boxes {
			for j := i + 1; j < len(boxes); j++ {
				if inter, ok := boxes[i].Intersection(boxes[j]); ok && inter.Volume() > 0 {
					t.Errorf("clause %q: boxes %d,%d overlap", clause, i, j)
				}
			}
		}
		for k := 0; k < 500; k++ {
			a := rng.Float64() * 10
			b := rng.Float64() * 10
			if k%10 == 0 {
				a = float64(rng.Intn(11)) // exercise integer boundaries
				b = float64(rng.Intn(11))
			}
			want := evals[ci](a, b)
			got := false
			for _, bx := range boxes {
				if bx.Contains(geom.Point{a, b}) {
					got = true
					break
				}
			}
			if got != want {
				t.Fatalf("clause %q point (%v,%v): got %v, want %v", clause, a, b, got, want)
			}
		}
	}
}
