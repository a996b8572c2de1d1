// Package sqlrew implements the SQL query rewriter of the PAW query
// framework (Fig. 4): WHERE clauses with unary numeric predicates are parsed
// and rewritten into one or more *disjoint* multi-dimensional range queries,
// exactly as §III-B describes (e.g. WHERE A>=10 OR B<=50 becomes
// [10,∞)×(−∞,∞) and (−∞,10)×(−∞,50]).
package sqlrew

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokOp // >= <= > < = <>
	tokLParen
	tokRParen
	tokAnd
	tokOr
	tokNot
	tokBetween
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex tokenises a WHERE clause, appending the tokens to out. Keywords are
// case-insensitive. Token texts are substrings of s, so lexing allocates
// nothing once out has room.
func lex(s string, out []token) ([]token, error) {
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			out = append(out, token{kind: tokLParen, text: "(", pos: i})
			i++
		case c == ')':
			out = append(out, token{kind: tokRParen, text: ")", pos: i})
			i++
		case c == '>' || c == '<' || c == '=':
			n := 1
			if i+1 < len(s) && (s[i+1] == '=' || (c == '<' && s[i+1] == '>')) {
				n = 2
			}
			out = append(out, token{kind: tokOp, text: s[i : i+n], pos: i})
			i += n
		case c == '-' || c == '.' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(s) && (s[j] == '.' || s[j] == 'e' || s[j] == 'E' || s[j] == '-' || s[j] == '+' || (s[j] >= '0' && s[j] <= '9')) {
				// Allow '-'/'+' only directly after an exponent marker.
				if (s[j] == '-' || s[j] == '+') && !(s[j-1] == 'e' || s[j-1] == 'E') {
					break
				}
				j++
			}
			text := s[i:j]
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlrew: bad number %q at position %d", text, i)
			}
			out = append(out, token{kind: tokNumber, text: text, num: v, pos: i})
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < len(s) && isIdentPart(rune(s[j])) {
				j++
			}
			word := s[i:j]
			kind := tokIdent
			switch len(word) {
			case 2:
				if strings.EqualFold(word, "OR") {
					kind = tokOr
				}
			case 3:
				if strings.EqualFold(word, "AND") {
					kind = tokAnd
				} else if strings.EqualFold(word, "NOT") {
					kind = tokNot
				}
			case 7:
				if strings.EqualFold(word, "BETWEEN") {
					kind = tokBetween
				}
			}
			out = append(out, token{kind: kind, text: word, pos: i})
			i = j
		default:
			return nil, fmt.Errorf("sqlrew: unexpected character %q at position %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: len(s)})
	return out, nil
}

// isIdentStart and isIdentPart classify single bytes, read as Latin-1 runes.
func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return r == '_' || ('a' <= r|0x20 && r|0x20 <= 'z')
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < utf8.RuneSelf {
		return r == '_' || ('a' <= r|0x20 && r|0x20 <= 'z') || ('0' <= r && r <= '9')
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}
