package javatok

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fuzzseed"
)

// lexerSeeds are the lexical corner cases FuzzTokenize starts from on top
// of the Java front end's shared seeds: each one takes a path of Tokenize
// that differs from its ASCII fast path or hinges on longest match.
var lexerSeeds = []string{
	// Invalid UTF-8 everywhere a token or comment can hold it.
	"\xff", "a\xffb", "\"a\xffb\"", "'\xff'", "// \xff\nx", "/* \xc3 */ y", "\xe2\x82", "x\xc3(",
	"\xed\xa0\x80", "\"\xef\xbf\xbd\"",
	// Non-ASCII identifiers, digits, strings and comments.
	"int größe = 1;", "ünïcödé $µ _ñ", "x٣ ٣4 0x٣ 1.٣ 2e٣", "\"héllo wörld\"", "'é'",
	"// commentaire é\nint x; /* 日本\n語 */ int y;", "€ # ` \\ \v",
	// Escapes: unicode (also outside literals), octal, unknown, at EOF.
	`"\u0041\uu0042\u00e9"`, `"\uD800"`, `"\u٣"`, `"\101\7\777\08"`, `'\u0041'`, `'\101'`,
	`"\q\'\"\\"`, `int \u0061bc`, "\"\\", "\"\\\n\"", "'\\",
	// Unterminated strings and chars.
	"\"abc", "\"abc\nint x;", "'", "''", "'''", "'ab'", "'a\nb'", "'\\n", "'a",
	// Operators: longest match and its neighbours.
	">>>=", ">>>", ">>=", ">>", "> >", "<<=", "<<", "->", "::", "..", "...", "....", ".5", "a.b", "1..2",
	"a+++b", "x-->0", "!==", "&&=", "||=", "^=%=", "/=*=",
	// Number literals and suffixes.
	"1_000L", "0x1_Fl", "0X1F", "0xL", "0b1_01f", "0B", "1e+5f", "1e-", "1E5D", "3.14d", "017", "1.", "1.e5",
	"0x1.8p3", "123abc", "0d", "1__2", "1e_5",
	// Comments at the edges.
	"/", "//", "/*", "/*/", "/**/", "/* * / */x", "a//b\nc", "\r\n\f\t x",
}

// FuzzTokenize asserts that Tokenize yields exactly the reference lexer's
// token stream — same kinds, text and positions — on any input.
func FuzzTokenize(f *testing.F) {
	for _, seed := range fuzzseed.Java {
		f.Add(seed)
	}
	for _, seed := range lexerSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want := Tokenize(src), refTokenize(src)
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("Tokenize(%q) differs from the reference at token %d of %d/%d:\n got %s\nwant %s",
				src, i, len(got), len(want), tokenAt(got, i), tokenAt(want, i))
		}
	})
}

// tokenAt renders toks[i] in full, or "(none)" past the end.
func tokenAt(toks []Token, i int) string {
	if i >= len(toks) {
		return "(none)"
	}
	return fmt.Sprintf("%v %q @%+v", toks[i].Kind, toks[i].Text, toks[i].Pos)
}
