// Package iql implements the iMeMex Query Language of §5.1 of the iDM
// paper: a keyword-search language in the spirit of IR engines, extended
// with path expressions over the resource view graph, predicates on
// tuple-component attributes and resource view classes, wildcards in
// name steps, and union and join operators. The package provides the
// lexer, parser, cost-based planner and evaluator; evaluation runs
// against any Store (the Resource View Manager implements it).
package iql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	// TokWord is a bare word: an identifier, keyword, number or name
	// pattern (may contain '*' and '?'). Interpretation is contextual.
	TokWord
	// TokString is a double-quoted string (keyword phrase or literal).
	TokString
	// TokDate is an @-prefixed date literal, e.g. @12.06.2005.
	TokDate
	TokSlash      // /
	TokSlashSlash // //
	TokLBracket   // [
	TokRBracket   // ]
	TokLParen     // (
	TokRParen     // )
	TokComma      // ,
	TokEq         // =
	TokNe         // !=
	TokLt         // <
	TokLe         // <=
	TokGt         // >
	TokGe         // >=
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of query"
	case TokWord:
		return "word"
	case TokString:
		return "string"
	case TokDate:
		return "date"
	case TokSlash:
		return "'/'"
	case TokSlashSlash:
		return "'//'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokEq:
		return "'='"
	case TokNe:
		return "'!='"
	case TokLt:
		return "'<'"
	case TokLe:
		return "'<='"
	case TokGt:
		return "'>'"
	case TokGe:
		return "'>='"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// SyntaxError reports a lexical or grammatical error with its position.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("iql: syntax error at %d: %s", e.Pos, e.Msg)
}

// isWordRune reports whether r may appear inside a bare word. Words
// cover identifiers, numbers, and name patterns such as *.tex or
// ?onclusion* — including dots (A.tuple.label splits on '.' later).
func isWordRune(r rune) bool {
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return true
	}
	switch r {
	case '*', '?', '.', '_', '-', '#', ':', '~', '\'':
		return true
	}
	return false
}

// Lex splits a query into tokens.
func Lex(src string) ([]Token, error) {
	var out []Token
	runes := []rune(src)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '/':
			if i+1 < len(runes) && runes[i+1] == '/' {
				out = append(out, Token{TokSlashSlash, "//", i})
				i += 2
			} else {
				out = append(out, Token{TokSlash, "/", i})
				i++
			}
		case r == '[':
			out = append(out, Token{TokLBracket, "[", i})
			i++
		case r == ']':
			out = append(out, Token{TokRBracket, "]", i})
			i++
		case r == '(':
			out = append(out, Token{TokLParen, "(", i})
			i++
		case r == ')':
			out = append(out, Token{TokRParen, ")", i})
			i++
		case r == ',':
			out = append(out, Token{TokComma, ",", i})
			i++
		case r == '=':
			out = append(out, Token{TokEq, "=", i})
			i++
		case r == '!':
			if i+1 < len(runes) && runes[i+1] == '=' {
				out = append(out, Token{TokNe, "!=", i})
				i += 2
			} else {
				return nil, &SyntaxError{i, "expected '=' after '!'"}
			}
		case r == '<':
			if i+1 < len(runes) && runes[i+1] == '=' {
				out = append(out, Token{TokLe, "<=", i})
				i += 2
			} else {
				out = append(out, Token{TokLt, "<", i})
				i++
			}
		case r == '>':
			if i+1 < len(runes) && runes[i+1] == '=' {
				out = append(out, Token{TokGe, ">=", i})
				i += 2
			} else {
				out = append(out, Token{TokGt, ">", i})
				i++
			}
		case r == '"':
			start := i
			i++
			var b strings.Builder
			for i < len(runes) && runes[i] != '"' {
				if runes[i] == '\\' && i+1 < len(runes) {
					i++
				}
				b.WriteRune(runes[i])
				i++
			}
			if i >= len(runes) {
				return nil, &SyntaxError{start, "unterminated string"}
			}
			i++ // closing quote
			out = append(out, Token{TokString, b.String(), start})
		case r == '@':
			start := i
			i++
			var b strings.Builder
			for i < len(runes) && (unicode.IsDigit(runes[i]) || runes[i] == '.' || runes[i] == '-') {
				b.WriteRune(runes[i])
				i++
			}
			if b.Len() == 0 {
				return nil, &SyntaxError{start, "expected date after '@'"}
			}
			out = append(out, Token{TokDate, b.String(), start})
		case isWordRune(r):
			start := i
			var b strings.Builder
			for i < len(runes) && isWordRune(runes[i]) {
				b.WriteRune(runes[i])
				i++
			}
			out = append(out, Token{TokWord, b.String(), start})
		default:
			return nil, &SyntaxError{i, fmt.Sprintf("unexpected character %q", r)}
		}
	}
	out = append(out, Token{TokEOF, "", len(runes)})
	return out, nil
}
