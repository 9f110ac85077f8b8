package javatok

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file keeps the original rune-at-a-time lexer, unchanged apart from
// its identifiers, as the differential reference for the byte-oriented
// lexer in lexer.go: FuzzTokenize and TestTokenizeDifferential require
// Tokenize to produce exactly the token stream of refTokenize (same kinds,
// text and positions) on every input.

// refLexer scans Java source text into tokens. It never fails: unexpected
// characters yield Illegal tokens and scanning continues, which lets the
// parser recover on partial programs.
type refLexer struct {
	src  string
	off  int // current byte offset
	line int
	col  int
}

// newRefLexer returns a lexer over src.
func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

// refTokenize scans all of src and returns the token stream, terminated by
// an EOF token.
func refTokenize(src string) []Token {
	lx := newRefLexer(src)
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks
		}
	}
}

func (lx *refLexer) pos() Pos { return Pos{Offset: lx.off, Line: lx.line, Col: lx.col} }

// peek returns the rune at the current offset without consuming it.
func (lx *refLexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

// peekAt returns the rune n bytes ahead (only valid for ASCII lookahead).
func (lx *refLexer) peekAt(n int) rune {
	if lx.off+n >= len(lx.src) {
		return -1
	}
	return rune(lx.src[lx.off+n])
}

// advance consumes one rune, maintaining line/col bookkeeping.
func (lx *refLexer) advance() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *refLexer) skipSpaceAndComments() {
	for {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n' || r == '\f':
			lx.advance()
		case r == '/' && lx.peekAt(1) == '/':
			for lx.peek() != '\n' && lx.peek() != -1 {
				lx.advance()
			}
		case r == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			for {
				c := lx.advance()
				if c == -1 {
					return
				}
				if c == '*' && lx.peek() == '/' {
					lx.advance()
					break
				}
			}
		default:
			return
		}
	}
}

func refIsIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func refIsIdentPart(r rune) bool {
	return refIsIdentStart(r) || unicode.IsDigit(r)
}

// Next scans and returns the next token.
func (lx *refLexer) Next() Token {
	lx.skipSpaceAndComments()
	start := lx.pos()
	r := lx.peek()
	switch {
	case r == -1:
		return Token{Kind: EOF, Pos: start}
	case refIsIdentStart(r):
		return lx.scanIdent(start)
	case unicode.IsDigit(r):
		return lx.scanNumber(start)
	case r == '"':
		return lx.scanString(start)
	case r == '\'':
		return lx.scanChar(start)
	case r == '.' && unicode.IsDigit(lx.peekAt(1)):
		return lx.scanNumber(start)
	}
	return lx.scanOperator(start)
}

func (lx *refLexer) scanIdent(start Pos) Token {
	var sb strings.Builder
	for refIsIdentPart(lx.peek()) {
		sb.WriteRune(lx.advance())
	}
	text := sb.String()
	kind := Ident
	if keywords[text] {
		kind = Keyword
	}
	return Token{Kind: kind, Text: text, Pos: start}
}

func (lx *refLexer) scanNumber(start Pos) Token {
	var sb strings.Builder
	kind := IntLit
	isHex := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		isHex = true
		sb.WriteRune(lx.advance())
		sb.WriteRune(lx.advance())
		for refIsHexDigit(lx.peek()) || lx.peek() == '_' {
			sb.WriteRune(lx.advance())
		}
	} else if lx.peek() == '0' && (lx.peekAt(1) == 'b' || lx.peekAt(1) == 'B') {
		sb.WriteRune(lx.advance())
		sb.WriteRune(lx.advance())
		for lx.peek() == '0' || lx.peek() == '1' || lx.peek() == '_' {
			sb.WriteRune(lx.advance())
		}
	} else {
		for unicode.IsDigit(lx.peek()) || lx.peek() == '_' {
			sb.WriteRune(lx.advance())
		}
		if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
			kind = DoubleLit
			sb.WriteRune(lx.advance())
			for unicode.IsDigit(lx.peek()) || lx.peek() == '_' {
				sb.WriteRune(lx.advance())
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			if unicode.IsDigit(lx.peekAt(1)) ||
				((lx.peekAt(1) == '+' || lx.peekAt(1) == '-') && unicode.IsDigit(lx.peekAt(2))) {
				kind = DoubleLit
				sb.WriteRune(lx.advance())
				if lx.peek() == '+' || lx.peek() == '-' {
					sb.WriteRune(lx.advance())
				}
				for unicode.IsDigit(lx.peek()) {
					sb.WriteRune(lx.advance())
				}
			}
		}
	}
	// Suffixes.
	switch lx.peek() {
	case 'l', 'L':
		if !isHex || kind == IntLit {
			lx.advance()
			kind = LongLit
		}
	case 'f', 'F':
		if !isHex {
			lx.advance()
			kind = FloatLit
		}
	case 'd', 'D':
		if !isHex {
			lx.advance()
			kind = DoubleLit
		}
	}
	text := strings.ReplaceAll(sb.String(), "_", "")
	return Token{Kind: kind, Text: text, Pos: start}
}

func refIsHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// scanEscape decodes one escape sequence after the backslash has been
// consumed, returning the decoded rune.
func (lx *refLexer) scanEscape() rune {
	c := lx.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case '0', '1', '2', '3', '4', '5', '6', '7':
		v := c - '0'
		for i := 0; i < 2 && lx.peek() >= '0' && lx.peek() <= '7'; i++ {
			v = v*8 + (lx.advance() - '0')
		}
		return v
	case 'u':
		for lx.peek() == 'u' {
			lx.advance()
		}
		var v rune
		for i := 0; i < 4 && refIsHexDigit(lx.peek()); i++ {
			d := lx.advance()
			switch {
			case d >= '0' && d <= '9':
				v = v*16 + (d - '0')
			case d >= 'a' && d <= 'f':
				v = v*16 + (d - 'a' + 10)
			default:
				v = v*16 + (d - 'A' + 10)
			}
		}
		return v
	default:
		return c // \\, \', \", and anything unknown maps to itself
	}
}

func (lx *refLexer) scanString(start Pos) Token {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		c := lx.peek()
		if c == -1 || c == '\n' {
			return Token{Kind: Illegal, Text: sb.String(), Pos: start}
		}
		lx.advance()
		if c == '"' {
			return Token{Kind: StringLit, Text: sb.String(), Pos: start}
		}
		if c == '\\' {
			sb.WriteRune(lx.scanEscape())
			continue
		}
		sb.WriteRune(c)
	}
}

func (lx *refLexer) scanChar(start Pos) Token {
	lx.advance() // opening quote
	c := lx.peek()
	if c == -1 || c == '\n' {
		return Token{Kind: Illegal, Pos: start}
	}
	lx.advance()
	if c == '\\' {
		c = lx.scanEscape()
	}
	if lx.peek() == '\'' {
		lx.advance()
		return Token{Kind: CharLit, Text: string(c), Pos: start}
	}
	// Unterminated char literal: consume up to the closing quote or EOL.
	for lx.peek() != '\'' && lx.peek() != '\n' && lx.peek() != -1 {
		lx.advance()
	}
	if lx.peek() == '\'' {
		lx.advance()
	}
	return Token{Kind: Illegal, Text: string(c), Pos: start}
}

// refOpTable maps operator spellings to kinds, tried longest-first.
var refOpTable = []struct {
	text string
	kind Kind
}{
	{">>>=", UshrEq},
	{">>>", Ushr}, {"<<=", ShlEq}, {">>=", ShrEq}, {"...", Ellipsis},
	{"==", Eq}, {"<=", Le}, {">=", Ge}, {"!=", Ne},
	{"&&", AndAnd}, {"||", OrOr}, {"++", Inc}, {"--", Dec},
	{"+=", PlusEq}, {"-=", MinusEq}, {"*=", StarEq}, {"/=", SlashEq},
	{"&=", AndEq}, {"|=", OrEq}, {"^=", CaretEq}, {"%=", PercentEq},
	{"<<", Shl}, {">>", Shr}, {"->", Arrow}, {"::", ColonCln},
	{"(", LParen}, {")", RParen}, {"{", LBrace}, {"}", RBrace},
	{"[", LBracket}, {"]", RBracket}, {";", Semi}, {",", Comma},
	{".", Dot}, {"@", At}, {"=", Assign}, {">", Gt}, {"<", Lt},
	{"!", Not}, {"~", Tilde}, {"?", Question}, {":", Colon},
	{"+", Plus}, {"-", Minus}, {"*", Star}, {"/", Slash},
	{"&", And}, {"|", Or}, {"^", Caret}, {"%", Percent},
}

func (lx *refLexer) scanOperator(start Pos) Token {
	rest := lx.src[lx.off:]
	for _, op := range refOpTable {
		if strings.HasPrefix(rest, op.text) {
			for range op.text {
				lx.advance()
			}
			return Token{Kind: op.kind, Text: op.text, Pos: start}
		}
	}
	r := lx.advance()
	return Token{Kind: Illegal, Text: string(r), Pos: start}
}

// RefTokenize exposes the reference lexer to the external corpus test.
var RefTokenize = refTokenize
