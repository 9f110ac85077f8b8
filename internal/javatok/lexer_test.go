package javatok

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeSimpleClass(t *testing.T) {
	src := `class A { int x = 42; }`
	toks := Tokenize(src)
	want := []Kind{Keyword, Ident, LBrace, Keyword, Ident, Assign, IntLit, Semi, RBrace, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKeywordVsIdent(t *testing.T) {
	toks := Tokenize("class classy if iffy new newer")
	wantKinds := []Kind{Keyword, Ident, Keyword, Ident, Keyword, Ident, EOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q): kind = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestStringLiteralEscapes(t *testing.T) {
	cases := []struct{ src, want string }{
		{`"AES/CBC/PKCS5Padding"`, "AES/CBC/PKCS5Padding"},
		{`"a\nb"`, "a\nb"},
		{`"tab\there"`, "tab\there"},
		{`"quote\"inside"`, `quote"inside`},
		{`"back\\slash"`, `back\slash`},
		{`"ABC"`, "ABC"},
		{`"\101"`, "A"}, // octal
		{`""`, ""},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != StringLit {
			t.Errorf("%s: kind = %v, want StringLit", c.src, toks[0].Kind)
			continue
		}
		if toks[0].Text != c.want {
			t.Errorf("%s: text = %q, want %q", c.src, toks[0].Text, c.want)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	toks := Tokenize("\"abc\nint x;")
	if toks[0].Kind != Illegal {
		t.Errorf("unterminated string: kind = %v, want Illegal", toks[0].Kind)
	}
	// Scanning continues after the bad literal.
	var sawInt bool
	for _, tok := range toks {
		if tok.Is("int") {
			sawInt = true
		}
	}
	if !sawInt {
		t.Error("lexer did not recover after unterminated string")
	}
}

func TestCharLiterals(t *testing.T) {
	cases := []struct{ src, want string }{
		{`'a'`, "a"},
		{`'\n'`, "\n"},
		{`'\''`, "'"},
		{`'\\'`, `\`},
		{`'A'`, "A"},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != CharLit || toks[0].Text != c.want {
			t.Errorf("%s: got %v(%q), want CharLit(%q)", c.src, toks[0].Kind, toks[0].Text, c.want)
		}
	}
}

func TestNumberLiterals(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		text string
	}{
		{"0", IntLit, "0"},
		{"42", IntLit, "42"},
		{"1_000_000", IntLit, "1000000"},
		{"0x1F", IntLit, "0x1F"},
		{"0b1010", IntLit, "0b1010"},
		{"123L", LongLit, "123"},
		{"1.5", DoubleLit, "1.5"},
		{"1.5f", FloatLit, "1.5"},
		{"2e10", DoubleLit, "2e10"},
		{"3.14d", DoubleLit, "3.14"},
		{"017", IntLit, "017"},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%s: got %v(%q), want %v(%q)", c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestOperatorsLongestMatch(t *testing.T) {
	cases := []struct {
		src  string
		want []Kind
	}{
		{">>>=", []Kind{UshrEq, EOF}},
		{">>>", []Kind{Ushr, EOF}},
		{">>", []Kind{Shr, EOF}},
		{">=", []Kind{Ge, EOF}},
		{"->", []Kind{Arrow, EOF}},
		{"::", []Kind{ColonCln, EOF}},
		{"...", []Kind{Ellipsis, EOF}},
		{"a++ + ++b", []Kind{Ident, Inc, Plus, Inc, Ident, EOF}},
		{"x<<=2", []Kind{Ident, ShlEq, IntLit, EOF}},
	}
	for _, c := range cases {
		got := kinds(Tokenize(c.src))
		if len(got) != len(c.want) {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%q token %d: got %v, want %v", c.src, i, got[i], c.want[i])
			}
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment with "string" and 'char'
/* block
   comment */ int /* inline */ x; /** javadoc */
`
	got := kinds(Tokenize(src))
	want := []Kind{Keyword, Ident, Semi, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	toks := Tokenize("int x; /* never closed")
	if toks[len(toks)-1].Kind != EOF {
		t.Fatal("expected EOF termination")
	}
	if len(toks) != 4 { // int x ; EOF
		t.Errorf("got %d tokens: %v", len(toks), toks)
	}
}

func TestPositions(t *testing.T) {
	src := "int x;\n  y = 2;"
	toks := Tokenize(src)
	checks := []struct {
		idx       int
		line, col int
	}{
		{0, 1, 1}, // int
		{1, 1, 5}, // x
		{2, 1, 6}, // ;
		{3, 2, 3}, // y
		{4, 2, 5}, // =
	}
	for _, c := range checks {
		p := toks[c.idx].Pos
		if p.Line != c.line || p.Col != c.col {
			t.Errorf("token %d (%s): pos = %d:%d, want %d:%d",
				c.idx, toks[c.idx], p.Line, p.Col, c.line, c.col)
		}
	}
}

func TestDollarAndUnderscoreIdents(t *testing.T) {
	toks := Tokenize("$var _x a$b x_1")
	for i := 0; i < 4; i++ {
		if toks[i].Kind != Ident {
			t.Errorf("token %d = %v, want Ident", i, toks[i])
		}
	}
}

func TestDotVsDoubleLiteral(t *testing.T) {
	// ".5" is a double; "a.b" is field access.
	toks := Tokenize(".5 a.b")
	if toks[0].Kind != DoubleLit {
		t.Errorf(".5: got %v, want DoubleLit", toks[0].Kind)
	}
	if toks[2].Kind != Dot {
		t.Errorf("a.b dot: got %v, want Dot", toks[2].Kind)
	}
}

func TestIllegalRune(t *testing.T) {
	toks := Tokenize("int x # y")
	var sawIllegal bool
	for _, tok := range toks {
		if tok.Kind == Illegal {
			sawIllegal = true
		}
	}
	if !sawIllegal {
		t.Error("expected an Illegal token for '#'")
	}
	if toks[len(toks)-1].Kind != EOF {
		t.Error("lexer did not reach EOF after illegal rune")
	}
}

// Property: tokenizing always terminates with exactly one EOF, and every
// token's offset is within bounds and non-decreasing.
func TestQuickTokenizeTotal(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
			return false
		}
		prev := -1
		for _, tok := range toks {
			if tok.Pos.Offset < prev || tok.Pos.Offset > len(s) {
				return false
			}
			prev = tok.Pos.Offset
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: identifiers made of letters survive a tokenize round trip.
func TestQuickIdentRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' {
					return r
				}
				return -1
			}, w)
			if w != "" && !IsKeyword(w) {
				clean = append(clean, w)
			}
		}
		toks := Tokenize(strings.Join(clean, " "))
		if len(toks) != len(clean)+1 {
			return false
		}
		for i, w := range clean {
			if toks[i].Kind != Ident || toks[i].Text != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	src := strings.Repeat(`
class AESCipher {
    Cipher enc, dec;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) throws Exception {
        byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
        IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
        enc = Cipher.getInstance(algorithm);
        enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
    }
}
`, 20)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(src)
	}
}

func TestKindAndTokenStrings(t *testing.T) {
	cases := []struct {
		tok  Token
		want string
	}{
		{Token{Kind: Ident, Text: "x"}, "Ident(x)"},
		{Token{Kind: Keyword, Text: "class"}, "Keyword(class)"},
		{Token{Kind: IntLit, Text: "42"}, "IntLit(42)"},
		{Token{Kind: StringLit, Text: "a\"b"}, `String("a\"b")`},
		{Token{Kind: CharLit, Text: "c"}, `Char("c")`},
		{Token{Kind: LBrace}, "{"},
		{Token{Kind: Ellipsis}, "..."},
		{Token{Kind: UshrEq}, ">>>="},
		{Token{Kind: EOF}, "EOF"},
	}
	for _, c := range cases {
		if got := c.tok.String(); got != c.want {
			t.Errorf("Token.String() = %q, want %q", got, c.want)
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind = %q", got)
	}
	if got := (Pos{Line: 3, Col: 7}).String(); got != "3:7" {
		t.Errorf("Pos.String() = %q", got)
	}
}

func TestUnicodeEscapesInStrings(t *testing.T) {
	toks := Tokenize("\"\\u0041B\"")
	if toks[0].Kind != StringLit || toks[0].Text != "AB" {
		t.Errorf("unicode escape: %v", toks[0])
	}
	// Multiple u's are legal: \uu0041.
	toks = Tokenize(`"\uu0043"`)
	if toks[0].Text != "C" {
		t.Errorf("multi-u escape: %v", toks[0])
	}
}

func TestIsKeywordTable(t *testing.T) {
	for _, kw := range []string{"class", "if", "true", "null", "instanceof", "strictfp"} {
		if !IsKeyword(kw) {
			t.Errorf("IsKeyword(%q) = false", kw)
		}
	}
	for _, id := range []string{"Class", "classes", "var", ""} {
		if IsKeyword(id) {
			t.Errorf("IsKeyword(%q) = true", id)
		}
	}
}

// Unicode escapes are decoded inside literals only; elsewhere the backslash
// is an Illegal token and the escape's letters lex as an identifier.
func TestUnicodeEscapeOutsideLiteral(t *testing.T) {
	toks := Tokenize(`int \u0061bc`)
	want := []Token{
		{Kind: Keyword, Text: "int", Pos: Pos{Offset: 0, Line: 1, Col: 1}},
		{Kind: Illegal, Text: `\`, Pos: Pos{Offset: 4, Line: 1, Col: 5}},
		{Kind: Ident, Text: "u0061bc", Pos: Pos{Offset: 5, Line: 1, Col: 6}},
		{Kind: EOF, Pos: Pos{Offset: 12, Line: 1, Col: 13}},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("got %v, want %v", toks, want)
	}
}
