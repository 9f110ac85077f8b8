package usage

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the usage DAG in Graphviz dot format, in the visual style of
// the paper's Figure 2(b)/(c): the root carries the object's type, method
// nodes are boxes, argument nodes are plain labels.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n")
	ids := map[string]string{}
	keys := make([]string, 0, len(g.labels))
	for k := range g.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		id := fmt.Sprintf("n%d", i)
		ids[k] = id
		shape := "plaintext"
		switch {
		case strings.HasPrefix(k, "T|"):
			shape = "doublecircle"
		case strings.HasPrefix(k, "M|"):
			shape = "box"
		}
		fmt.Fprintf(&sb, "  %s [label=%q, shape=%s];\n", id, g.labels[k], shape)
	}
	for _, from := range keys {
		for _, to := range g.edges[from] {
			fmt.Fprintf(&sb, "  %s -> %s;\n", ids[from], ids[to])
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
