package corpus

import (
	"math/rand"
	"testing"
)

// refRender is Render with fresh sources seeded from NameSeed and
// DecoySeed on every call — the generator before seed tapes, kept as the
// oracle for them.
func refRender(s *FileSpec) string {
	return s.render(rand.New(rand.NewSource(s.NameSeed)), rand.New(rand.NewSource(s.DecoySeed)))
}

// TestDifferentialRenderSeedTapes walks every archetype through random
// commit transitions of every kind, with the generator's forced decoy touch
// on a no-text-change commit, and requires Render to equal refRender at
// every step. Every 100 steps a copy of the spec, which shares its tapes,
// is renamed (or not) and rendered, and the original rendered again.
func TestDifferentialRenderSeedTapes(t *testing.T) {
	const steps = 2000
	kinds := []CommitKind{KindRefactor, KindUnrelated, KindAdd, KindRemove, KindFix, KindBug}
	forced := 0
	for arch := ArchEnc; arch <= ArchMixed; arch++ {
		rng := rand.New(rand.NewSource(int64(arch) + 11))
		spec := newFileSpec(rng, arch)
		check := func(s *FileSpec, step int, what string) string {
			got, want := s.Render(), refRender(s)
			if got != want {
				t.Fatalf("%s step %d (%s): Render differs from refRender\n--- got ---\n%s\n--- want ---\n%s",
					arch, step, what, got, want)
			}
			return got
		}
		cur := check(spec, 0, "initial")
		for step := 1; step <= steps; step++ {
			_, kind := spec.apply(rng, kinds[rng.Intn(len(kinds))])
			next := check(spec, step, kind.String())
			if next == cur {
				forced++
				spec.DecoySeed++
				next = check(spec, step, "forced decoy touch")
			}
			cur = next
			if step%100 == 0 {
				cp := *spec
				cp.NameSeed += int64(rng.Intn(3))
				check(&cp, step, "renamed copy")
				check(spec, step, "original after copy")
			}
		}
	}
	if forced == 0 {
		t.Error("the walk never forced a decoy touch")
	}
}
