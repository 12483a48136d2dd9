// Package sql implements the SQL front end: lexer, recursive-descent parser
// and the analyzer that binds statements against the catalog into logical
// queries for the optimizer. Vertica borrowed its parser from PostgreSQL
// (paper §2.1); this hand-written parser covers the analytic subset the
// engine executes.
package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // operators and punctuation
	tokParam  // $1, $2, ... positional parameter
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents lower-cased; others literal
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "IS": true, "NULL": true,
	"TRUE": true, "FALSE": true, "BETWEEN": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "JOIN": true, "ON": true,
	"INNER": true, "LEFT": true, "RIGHT": true, "FULL": true, "OUTER": true,
	"SEMI": true, "ANTI": true, "CREATE": true, "TABLE": true, "PROJECTION": true,
	"PARTITION": true, "SEGMENTED": true, "REPLICATED": true, "HASH": true,
	"INSERT": true, "INTO": true, "VALUES": true, "DELETE": true, "UPDATE": true,
	"SET": true, "DROP": true, "DISTINCT": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "ASC": true, "DESC": true,
	"TIMESTAMP": true, "DATE": true, "ALL": true, "BUDDY": true, "OF": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "EXPLAIN": true,
	"CROSS": true, "USING": true, "PROFILE": true,
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) error(pos int, format string, args ...interface{}) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(l.src); i++ {
		if l.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("sql: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// lex tokenizes the whole input.
func (l *lexer) lex() ([]token, error) {
	// One allocation for most statements: a token rarely takes fewer than
	// four bytes of source, blanks included.
	out := make([]token, 0, len(l.src)/4+2)
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			out = append(out, token{kind: tokEOF, pos: l.pos})
			return out, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isLetter(c) || c == '_':
			for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos]) || l.src[l.pos] == '_' || l.src[l.pos] == '$') {
				l.pos++
			}
			word := l.src[start:l.pos]
			up := strings.ToUpper(word)
			if keywords[up] {
				out = append(out, token{kind: tokKeyword, text: up, pos: start})
			} else {
				out = append(out, token{kind: tokIdent, text: strings.ToLower(word), pos: start})
			}
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			isFloat := false
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
				((l.src[l.pos] == '+' || l.src[l.pos] == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
				if l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' {
					isFloat = true
				}
				l.pos++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			out = append(out, token{kind: kind, text: l.src[start:l.pos], pos: start})
		case c == '\'':
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, l.error(start, "unterminated string literal")
				}
				if l.src[l.pos] == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						sb.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(l.src[l.pos])
				l.pos++
			}
			out = append(out, token{kind: tokString, text: sb.String(), pos: start})
		case c == '"':
			l.pos++
			qstart := l.pos
			for l.pos < len(l.src) && l.src[l.pos] != '"' {
				l.pos++
			}
			if l.pos >= len(l.src) {
				return nil, l.error(start, "unterminated quoted identifier")
			}
			out = append(out, token{kind: tokIdent, text: strings.ToLower(l.src[qstart:l.pos]), pos: start})
			l.pos++
		case c == '$' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			out = append(out, token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start})
		default:
			sym := l.lexSymbol()
			if sym == "" {
				return nil, l.error(start, "unexpected character %q", c)
			}
			out = append(out, token{kind: tokSymbol, text: sym, pos: start})
		}
	}
}

func (l *lexer) lexSymbol() string {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		l.pos += 2
		if two == "!=" {
			return "<>"
		}
		return two
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', ';', '*', '+', '-', '/', '%', '<', '>', '=':
		l.pos++
		return string(c)
	}
	return ""
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
		default:
			return
		}
	}
}

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
