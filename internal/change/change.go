// Package change derives usage changes from paired usage DAGs (paper §3.5)
// and implements the filtering pipeline of §4.2 that distills semantic
// security fixes out of tens of thousands of syntactic code changes.
package change

import (
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/usage"
)

// Meta records the provenance of a usage change (which commit of which
// project produced it).
type Meta struct {
	Project string
	Commit  string
	File    string
	Message string
}

// UsageChange is the paper's Diff(G1, G2) = (F−, F+): the shortest feature
// paths removed from the old version and added to the new version, for one
// paired object of the target class.
type UsageChange struct {
	Class   string
	Removed []usage.Path // F−
	Added   []usage.Path // F+
	Meta    Meta
}

// IsSame reports the fsame condition: both F− and F+ empty (a refactoring
// or a change not touching the target class).
func (c *UsageChange) IsSame() bool { return len(c.Removed) == 0 && len(c.Added) == 0 }

// IsAddOnly reports the fadd condition: nothing removed (a new API usage
// was introduced rather than fixed).
func (c *UsageChange) IsAddOnly() bool { return len(c.Removed) == 0 && len(c.Added) > 0 }

// IsRemoveOnly reports the frem condition: nothing added (an API usage was
// deleted).
func (c *UsageChange) IsRemoveOnly() bool { return len(c.Added) == 0 && len(c.Removed) > 0 }

// Label names what the change does to the usage, as the single-change
// reports print it: "new usage added" (fadd), "usage removed" (frem), or
// "semantic change".
func (c *UsageChange) Label() string {
	switch {
	case c.IsAddOnly():
		return "new usage added"
	case c.IsRemoveOnly():
		return "usage removed"
	}
	return "semantic change"
}

// Key returns a canonical identity for duplicate detection (fdup): the
// sorted F− and F+ path sets.
func (c *UsageChange) Key() string {
	render := func(ps []usage.Path) string {
		keys := make([]string, len(ps))
		for i, p := range ps {
			keys[i] = p.Key()
		}
		sort.Strings(keys)
		return strings.Join(keys, "\x01")
	}
	return c.Class + "\x02-" + render(c.Removed) + "\x02+" + render(c.Added)
}

// String renders the change in the style of Figure 2(d).
func (c *UsageChange) String() string {
	var sb strings.Builder
	for _, p := range c.Removed {
		sb.WriteString("- " + strings.Join(p, " ") + "\n")
	}
	for _, p := range c.Added {
		sb.WriteString("+ " + strings.Join(p, " ") + "\n")
	}
	return sb.String()
}

// Shortest returns the prefix-minimal subset of paths: p is kept iff no
// other path in the set is a strict prefix of p (paper §3.5).
func Shortest(paths []usage.Path) []usage.Path {
	var out []usage.Path
	for i, p := range paths {
		minimal := true
		for j, q := range paths {
			if i == j {
				continue
			}
			if len(q) < len(p) && q.IsPrefixOf(p) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, p)
		}
	}
	return out
}

// Diff computes the usage change between two DAGs:
// F− = Shortest(Paths(G1) \ Paths(G2)), F+ = Shortest(Paths(G2) \ Paths(G1)).
// Both sides are empty exactly when the path sets are equal, which the
// graphs' path keys decide without computing either difference.
func Diff(g1, g2 *usage.Graph) (removed, added []usage.Path) {
	if usage.SamePaths(g1, g2) {
		return nil, nil
	}
	return Shortest(g1.Minus(g2)), Shortest(g2.Minus(g1))
}

// Extract derives all usage changes of one target class between two program
// versions: build the DAGs of both versions, pair them by minimum summed
// distance, and diff each pair (Figure 4).
func Extract(oldRes, newRes *analysis.Result, class string, depth int, meta Meta) []UsageChange {
	return ExtractGraphs(usage.BuildAll(oldRes, class, depth), usage.BuildAll(newRes, class, depth), class, meta)
}

// ExtractGraphs is Extract over the already built DAGs of both versions. It
// only reads the graphs, so one version's DAGs can serve every change that
// shares the version, concurrently.
func ExtractGraphs(oldGs, newGs []*usage.Graph, class string, meta Meta) []UsageChange {
	pairs := usage.Pair(oldGs, newGs, class)
	out := make([]UsageChange, 0, len(pairs))
	for _, pr := range pairs {
		rem, add := Diff(pr.Old, pr.New)
		out = append(out, UsageChange{Class: class, Removed: rem, Added: add, Meta: meta})
	}
	return out
}

// ---------------------------------------------------------------------------
// Filtering (paper §4.2)
// ---------------------------------------------------------------------------

// FilterStats reports the number of usage changes remaining after each
// filter stage, in the paper's order (Figure 6 columns).
type FilterStats struct {
	Total     int // before filtering
	AfterSame int // after fsame
	AfterAdd  int // after fadd
	AfterRem  int // after frem
	AfterDup  int // after fdup
}

// Filter applies the four filters in order — fsame, fadd, frem, fdup — and
// returns the surviving semantic usage changes plus per-stage counts.
func Filter(changes []UsageChange) ([]UsageChange, FilterStats) {
	stats := FilterStats{Total: len(changes)}
	var stage []UsageChange
	for _, c := range changes {
		if !c.IsSame() {
			stage = append(stage, c)
		}
	}
	stats.AfterSame = len(stage)

	var stage2 []UsageChange
	for _, c := range stage {
		if !c.IsAddOnly() {
			stage2 = append(stage2, c)
		}
	}
	stats.AfterAdd = len(stage2)

	var stage3 []UsageChange
	for _, c := range stage2 {
		if !c.IsRemoveOnly() {
			stage3 = append(stage3, c)
		}
	}
	stats.AfterRem = len(stage3)

	seen := map[string]bool{}
	var out []UsageChange
	for _, c := range stage3 {
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	stats.AfterDup = len(out)
	return out, stats
}
