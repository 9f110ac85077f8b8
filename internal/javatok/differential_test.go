package javatok_test

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/javatok"
)

// TestTokenizeDifferentialCorpus lexes every source of a small generated
// corpus — both versions of every commit and every snapshot file — with
// Tokenize and with the reference lexer, and requires identical streams.
func TestTokenizeDifferentialCorpus(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.05, Projects: 40, ExtraProjects: 5})
	var sources []string
	for _, p := range c.Projects {
		for _, cm := range p.Commits {
			sources = append(sources, cm.Old, cm.New)
		}
		for _, src := range p.Files {
			sources = append(sources, src)
		}
	}
	if len(sources) < 100 {
		t.Fatalf("corpus has only %d sources", len(sources))
	}
	tokens := 0
	for i, src := range sources {
		got, want := javatok.Tokenize(src), javatok.RefTokenize(src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("source %d: Tokenize differs from the reference lexer", i)
		}
		tokens += len(got)
	}
	t.Logf("%d sources, %d tokens identical", len(sources), tokens)
}
