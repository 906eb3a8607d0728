// Package sql implements a small SQL front end for star and snowflake
// queries: the SELECT/FROM/WHERE/GROUP BY/ORDER BY subset that covers the
// Star Schema Benchmark, parsed and bound against a catalog into the
// logical plan (plan.Logical) every executor lowers. The paper writes queries
// as Java MapReduce programs (Figure 4); this package is the convenience
// layer a downstream user would expect.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , ; = < > <= >= <> + - * /
)

type token struct {
	kind tokenKind
	text string // identifiers lowercased; strings unquoted
	pos  int
}

// lex splits the input into tokens. SQL keywords are returned as tokIdent
// and matched case-insensitively by the parser.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: input[i+1 : j], pos: i})
			i = j + 1
		case unicode.IsDigit(c):
			j := i
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: strings.ToLower(input[i:j]), pos: i})
			i = j
		case strings.ContainsRune("(),;=+-*/", c):
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		case c == '<':
			if i+1 < len(input) && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2], pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: "<", pos: i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: ">=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: ">", pos: i})
				i++
			}
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}
