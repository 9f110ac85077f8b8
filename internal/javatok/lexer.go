package javatok

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer scans Java source text into tokens. It never fails: unexpected
// characters yield Illegal tokens and scanning continues, which lets the
// parser recover on partial programs.
//
// The lexer works on bytes: ASCII, which is nearly all of Java source, is
// classified with tables and byte switches, and only a byte >= 0x80 is
// decoded as UTF-8 (an invalid sequence reads as U+FFFD, one byte wide).
// Columns count decoded runes.
type Lexer struct {
	src  string
	off  int // current byte offset
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// bytesPerToken sizes Tokenize's result up front; generated Java sources
// average a little over five bytes per token.
const bytesPerToken = 5

// Tokenize scans all of src and returns the token stream, terminated by an
// EOF token.
func Tokenize(src string) []Token {
	lx := NewLexer(src)
	toks := make([]Token, 0, len(src)/bytesPerToken+1)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks
		}
	}
}

func (lx *Lexer) pos() Pos { return Pos{Offset: lx.off, Line: lx.line, Col: lx.col} }

// byteAt returns the byte n bytes ahead, or 0 past the end of the input.
func (lx *Lexer) byteAt(n int) byte {
	if lx.off+n < len(lx.src) {
		return lx.src[lx.off+n]
	}
	return 0
}

// peek returns the rune at the current offset without consuming it, or -1
// at the end of the input.
func (lx *Lexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	if c := lx.src[lx.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

// advance consumes one rune, maintaining line/col bookkeeping.
func (lx *Lexer) advance() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	if c := lx.src[lx.off]; c < utf8.RuneSelf {
		lx.off++
		if c == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		return rune(c)
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
	lx.off += w
	lx.col++
	return r
}

// skipTo consumes src[off:end], which must end on a rune boundary,
// maintaining line/col bookkeeping.
func (lx *Lexer) skipTo(end int) {
	s := lx.src[lx.off:end]
	if nl := strings.LastIndexByte(s, '\n'); nl >= 0 {
		lx.line += strings.Count(s, "\n")
		lx.col = 1
		s = s[nl+1:]
	}
	lx.col += utf8.RuneCountInString(s)
	lx.off = end
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		switch lx.src[lx.off] {
		case ' ', '\t', '\r', '\f':
			lx.off++
			lx.col++
		case '\n':
			lx.off++
			lx.line++
			lx.col = 1
		case '/':
			switch lx.byteAt(1) {
			case '/':
				end := len(lx.src)
				if i := strings.IndexByte(lx.src[lx.off:], '\n'); i >= 0 {
					end = lx.off + i
				}
				lx.skipTo(end)
			case '*':
				end := len(lx.src)
				if i := strings.Index(lx.src[lx.off+2:], "*/"); i >= 0 {
					end = lx.off + 2 + i + 2
				}
				lx.skipTo(end)
			default:
				return
			}
		default:
			return
		}
	}
}

// Byte classes for the ASCII fast paths; a byte >= 0x80 is never in one.
var (
	identPart = byteSet("$_0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
	decDigits = byteSet("0123456789_")
	expDigits = byteSet("0123456789")
	hexDigits = byteSet("0123456789abcdefABCDEF_")
	binDigits = byteSet("01_")
)

func byteSet(chars string) *[utf8.RuneSelf]bool {
	var set [utf8.RuneSelf]bool
	for i := 0; i < len(chars); i++ {
		set[chars[i]] = true
	}
	return &set
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next scans and returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: start}
	}
	c := lx.src[lx.off]
	if c >= utf8.RuneSelf {
		r := lx.peek()
		switch {
		case unicode.IsLetter(r):
			return lx.scanIdent(start)
		case unicode.IsDigit(r):
			return lx.scanNumber(start)
		}
		return lx.scanOperator(start)
	}
	switch {
	case isDigit(c) || c == '.' && isDigit(lx.byteAt(1)):
		return lx.scanNumber(start)
	case identPart[c]:
		return lx.scanIdent(start)
	case c == '"':
		return lx.scanString(start)
	case c == '\'':
		return lx.scanChar(start)
	}
	return lx.scanOperator(start)
}

func (lx *Lexer) scanIdent(start Pos) Token {
	src, i, n := lx.src, lx.off, 0
	for ; i < len(src); n++ {
		if c := src[i]; c < utf8.RuneSelf {
			if !identPart[c] {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(src[i:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		i += w
	}
	text := src[lx.off:i]
	lx.off = i
	lx.col += n
	kind := Ident
	if 'a' <= text[0] && text[0] <= 'z' && keywords[text] {
		kind = Keyword
	}
	return Token{Kind: kind, Text: text, Pos: start}
}

// skipRun consumes the bytes in set and, when unicodeDigits is set, any
// non-ASCII rune for which unicode.IsDigit holds.
func (lx *Lexer) skipRun(set *[utf8.RuneSelf]bool, unicodeDigits bool) {
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		if c < utf8.RuneSelf {
			if !set[c] {
				return
			}
			lx.off++
			lx.col++
			continue
		}
		if !unicodeDigits {
			return
		}
		r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
		if !unicode.IsDigit(r) {
			return
		}
		lx.off += w
		lx.col++
	}
}

func (lx *Lexer) scanNumber(start Pos) Token {
	kind := IntLit
	isHex := false
	switch c1 := lx.byteAt(1); {
	case lx.byteAt(0) == '0' && (c1 == 'x' || c1 == 'X'):
		isHex = true
		lx.off += 2
		lx.col += 2
		lx.skipRun(hexDigits, true)
	case lx.byteAt(0) == '0' && (c1 == 'b' || c1 == 'B'):
		lx.off += 2
		lx.col += 2
		lx.skipRun(binDigits, false)
	default:
		lx.skipRun(decDigits, true)
		if lx.byteAt(0) == '.' && isDigit(lx.byteAt(1)) {
			kind = DoubleLit
			lx.off++
			lx.col++
			lx.skipRun(decDigits, true)
		}
		if e := lx.byteAt(0); e == 'e' || e == 'E' {
			sign := lx.byteAt(1)
			if isDigit(sign) || (sign == '+' || sign == '-') && isDigit(lx.byteAt(2)) {
				kind = DoubleLit
				lx.off++
				lx.col++
				if sign == '+' || sign == '-' {
					lx.off++
					lx.col++
				}
				lx.skipRun(expDigits, true)
			}
		}
	}
	text := strings.ReplaceAll(lx.src[start.Offset:lx.off], "_", "")
	// Suffixes.
	switch lx.byteAt(0) {
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
	return Token{Kind: kind, Text: text, Pos: start}
}

func isHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// scanEscape decodes one escape sequence after the backslash has been
// consumed, returning the decoded rune.
func (lx *Lexer) scanEscape() rune {
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
		for i := 0; i < 4 && isHexDigit(lx.peek()); i++ {
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

func (lx *Lexer) scanString(start Pos) Token {
	// Fast path: a literal of plain ASCII with no escape is its own text.
	for i := lx.off + 1; i < len(lx.src); i++ {
		c := lx.src[i]
		if c == '"' {
			text := lx.src[lx.off+1 : i]
			lx.col += i + 1 - lx.off
			lx.off = i + 1
			return Token{Kind: StringLit, Text: text, Pos: start}
		}
		if c == '\\' || c == '\n' || c >= utf8.RuneSelf {
			break
		}
	}
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

func (lx *Lexer) scanChar(start Pos) Token {
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

func (lx *Lexer) scanOperator(start Pos) Token {
	kind, n := operator(lx.src[lx.off:])
	if n == 0 {
		r := lx.advance()
		return Token{Kind: Illegal, Text: string(r), Pos: start}
	}
	text := lx.src[lx.off : lx.off+n]
	lx.off += n
	lx.col += n
	return Token{Kind: kind, Text: text, Pos: start}
}

// operator returns the kind and byte length of the longest operator or
// separator that s starts with, or n == 0 when it starts with none.
func operator(s string) (kind Kind, n int) {
	var c1, c2, c3 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	if len(s) > 3 {
		c3 = s[3]
	}
	switch s[0] {
	case '(':
		return LParen, 1
	case ')':
		return RParen, 1
	case '{':
		return LBrace, 1
	case '}':
		return RBrace, 1
	case '[':
		return LBracket, 1
	case ']':
		return RBracket, 1
	case ';':
		return Semi, 1
	case ',':
		return Comma, 1
	case '@':
		return At, 1
	case '~':
		return Tilde, 1
	case '?':
		return Question, 1
	case '.':
		if c1 == '.' && c2 == '.' {
			return Ellipsis, 3
		}
		return Dot, 1
	case ':':
		if c1 == ':' {
			return ColonCln, 2
		}
		return Colon, 1
	case '=':
		if c1 == '=' {
			return Eq, 2
		}
		return Assign, 1
	case '!':
		if c1 == '=' {
			return Ne, 2
		}
		return Not, 1
	case '<':
		switch {
		case c1 == '<' && c2 == '=':
			return ShlEq, 3
		case c1 == '<':
			return Shl, 2
		case c1 == '=':
			return Le, 2
		}
		return Lt, 1
	case '>':
		switch {
		case c1 == '>' && c2 == '>' && c3 == '=':
			return UshrEq, 4
		case c1 == '>' && c2 == '>':
			return Ushr, 3
		case c1 == '>' && c2 == '=':
			return ShrEq, 3
		case c1 == '>':
			return Shr, 2
		case c1 == '=':
			return Ge, 2
		}
		return Gt, 1
	case '&':
		switch c1 {
		case '&':
			return AndAnd, 2
		case '=':
			return AndEq, 2
		}
		return And, 1
	case '|':
		switch c1 {
		case '|':
			return OrOr, 2
		case '=':
			return OrEq, 2
		}
		return Or, 1
	case '+':
		switch c1 {
		case '+':
			return Inc, 2
		case '=':
			return PlusEq, 2
		}
		return Plus, 1
	case '-':
		switch c1 {
		case '-':
			return Dec, 2
		case '=':
			return MinusEq, 2
		case '>':
			return Arrow, 2
		}
		return Minus, 1
	case '*':
		if c1 == '=' {
			return StarEq, 2
		}
		return Star, 1
	case '/':
		if c1 == '=' {
			return SlashEq, 2
		}
		return Slash, 1
	case '^':
		if c1 == '=' {
			return CaretEq, 2
		}
		return Caret, 1
	case '%':
		if c1 == '=' {
			return PercentEq, 2
		}
		return Percent, 1
	}
	return EOF, 0
}
