package javaparser

import (
	"testing"

	"repro/internal/fuzzseed"
)

// FuzzParse asserts that the parser never escapes a panic other than its
// internal parseError recovery (which Parse itself recovers): for any
// input, Parse returns a Result with a non-nil compilation unit. The
// parser's contract is that its only panic is that recovery protocol, so
// fuzzing simply asserts Parse returns.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzseed.Java {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res := Parse(src) // a non-parseError panic fails the fuzz run
		if res.Unit == nil {
			t.Errorf("Parse returned nil unit for %q", src)
		}
	})
}
