package sqlrew

import (
	"errors"
	"strings"
	"testing"
)

// benchStmt is shaped like the cluster benchmark's fresh QF statements: a
// flat conjunction of a lower and an upper bound on each of four TPC-H
// columns.
const benchStmt = "SELECT * FROM t WHERE l_quantity >= 12.5 AND l_quantity <= 31.25 AND " +
	"l_extendedprice >= 20417.375 AND l_extendedprice <= 55210.0625 AND " +
	"l_discount >= 0.0125 AND l_discount <= 0.07 AND l_tax >= 0.01 AND l_tax <= 0.0625"

var benchCols = []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"}

func BenchmarkRewriteSQL(b *testing.B) {
	r, err := New(benchCols)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RewriteSQL(benchStmt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRewriteFlatConjunctionAllocs guards the allocation budget of the
// serving path's common case: a flat conjunction rewrites into one box.
func TestRewriteFlatConjunctionAllocs(t *testing.T) {
	r := mustNew(t, benchCols...)
	boxes, err := r.RewriteSQL(benchStmt)
	if err != nil || len(boxes) != 1 {
		t.Fatalf("RewriteSQL = %v, %v; want one box", boxes, err)
	}
	if b := boxes[0]; b.Lo[1] != 20417.375 || b.Hi[3] != 0.0625 {
		t.Fatalf("box = %v", b)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.RewriteSQL(benchStmt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("RewriteSQL of a flat 8-predicate conjunction: %.0f allocs, want <= 20", allocs)
	}
}

// TestRewriteSQLCaseMappingOffsets: WHERE is located in the statement's own
// bytes. Upper-casing ſ or ı shortens them by a byte each, so an offset
// found in an upper-cased copy would cut the clause mid-token.
func TestRewriteSQLCaseMappingOffsets(t *testing.T) {
	r := mustNew(t, "a")
	for _, stmt := range []string{
		"SELECT * FROM ſſ WHERE a >= 1",
		"SELECT * FROM ıı where a >= 1",
		"select * from ſı WhErE a >= 1",
	} {
		boxes, err := r.RewriteSQL(stmt)
		if err != nil {
			t.Errorf("%q: %v", stmt, err)
			continue
		}
		if len(boxes) != 1 || boxes[0].Lo[0] != 1 {
			t.Errorf("%q rewrote to %v", stmt, boxes)
		}
	}
}

// TestRewriteDoubleEqualsRejected: the lexer reads "==" as one operator;
// it must be rejected as unsupported, negated or not, never reach a panic.
func TestRewriteDoubleEqualsRejected(t *testing.T) {
	r := mustNew(t, "a")
	for _, clause := range []string{"a == 1", "NOT a == 1", "NOT (a >= 0 AND 1 == a)"} {
		_, err := r.Rewrite(clause)
		if err == nil || !strings.Contains(err.Error(), `unsupported operator "=="`) {
			t.Errorf("%q: err = %v, want unsupported operator", clause, err)
		}
	}
}

// TestRewriteSyntaxErrorsFirst: a clause with both a syntax error and an
// unknown column reports the syntax error, as a full parse precedes column
// resolution.
func TestRewriteSyntaxErrorsFirst(t *testing.T) {
	r := mustNew(t, "a")
	_, err := r.Rewrite("zz >= 1 AND (a >= 2")
	if err == nil || !strings.Contains(err.Error(), "expected ')'") {
		t.Fatalf("err = %v, want the unbalanced-paren error", err)
	}
	_, err = r.Rewrite("zz >= 1 AND a >= 2")
	if err == nil || !strings.Contains(err.Error(), `unknown column "zz"`) {
		t.Fatalf("err = %v, want the unknown-column error", err)
	}
	if errors.Unwrap(err) != nil {
		t.Fatalf("unknown-column error wraps %v", errors.Unwrap(err))
	}
}
