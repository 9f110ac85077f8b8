// Package usage builds the rooted directed acyclic graphs of the paper's
// §3.4 from abstract usages, and provides the node-set distance (§3.5) used
// to pair DAGs between program versions.
//
// Node identity follows the paper's Figure 2 arithmetic: the root is
// identified by the object's type, method nodes by their declaring class
// and name, and argument nodes by (index, abstract-value label) — object
// arguments label by their type. Two calls to the same method with
// different arguments therefore share the method node, and the argument
// nodes fan out beneath it, which is what makes the structure a DAG.
package usage

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
)

// DefaultDepth is the expansion bound n of the paper (§3.4: "we set n=5").
const DefaultDepth = 5

// Graph is a rooted DAG over content-identified nodes.
type Graph struct {
	// Root is the key of the root node ("T|<type>").
	Root string
	// Type is the API class of the root object.
	Type string
	// Obj is the abstract object the graph was built for (nil for padding
	// graphs used during pairing).
	Obj *absdom.AObj

	labels map[string]string   // node key → path-element label; the node set
	edges  map[string][]string // parent key → ordered child keys

	// paths are the root paths in Paths order and keys their Key, one per
	// path; sorted holds the same keys in ascending order. seal computes
	// all three once the graph is complete, so a built graph is read-only
	// and one graph can be paired and diffed by many changes at once.
	paths  []Path
	keys   []string
	sorted []string
}

// NewRootOnly returns the padding graph G = ({r}, ∅, r) whose root is
// labeled with the type t (paper §3.5, pairing versions with unequal DAG
// counts).
func NewRootOnly(typ string) *Graph {
	return newGraph(typ).seal()
}

func newGraph(typ string) *Graph {
	g := &Graph{
		Root:   "T|" + typ,
		Type:   typ,
		labels: map[string]string{},
		edges:  map[string][]string{},
	}
	g.addNode(g.Root, typ)
	return g
}

func (g *Graph) addNode(key, label string) {
	if _, ok := g.labels[key]; !ok {
		g.labels[key] = label
	}
}

func (g *Graph) addEdge(from, to string) {
	if slices.Contains(g.edges[from], to) {
		return
	}
	// The edge would close a cycle (paper §3.4 step 2) if to reaches from.
	// A node without out-edges reaches only itself, so it needs no search.
	if to == from || (len(g.edges[to]) > 0 && g.reaches(to, from)) {
		return
	}
	g.edges[from] = append(g.edges[from], to)
}

// reaches reports whether a path from → ... → to exists.
func (g *Graph) reaches(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.edges[n]...)
	}
	return false
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.labels) }

// NodeSet returns the set of node keys, as a new map.
func (g *Graph) NodeSet() map[string]bool {
	set := make(map[string]bool, len(g.labels))
	for k := range g.labels {
		set[k] = true
	}
	return set
}

// Children returns the ordered child keys of a node.
func (g *Graph) Children(key string) []string { return g.edges[key] }

// Label returns the path-element label of a node key.
func (g *Graph) Label(key string) string { return g.labels[key] }

// Build constructs the usage DAG for abstract object obj from the analysis
// result, expanding object-valued arguments breadth-first to maxDepth.
func Build(res *analysis.Result, obj *absdom.AObj, maxDepth int) *Graph {
	if maxDepth <= 0 {
		maxDepth = DefaultDepth
	}
	g := newGraph(obj.Type)
	g.Obj = obj

	type work struct {
		nodeKey string
		obj     *absdom.AObj
		depth   int
		chain   map[int]bool // object IDs on the expansion chain
	}
	queue := []work{{nodeKey: g.Root, obj: obj, depth: 0, chain: map[int]bool{obj.ID: true}}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w.depth+1 > maxDepth {
			continue
		}
		for _, ev := range res.Uses[w.obj] {
			mKey := "M|" + ev.Sig.Class + "." + ev.Sig.Name
			g.addNode(mKey, ev.Sig.Name)
			g.addEdge(w.nodeKey, mKey)
			if w.depth+2 > maxDepth {
				continue
			}
			for i, a := range ev.Args {
				lbl := argLabel(i+1, a)
				aKey := "A|" + strconv.Itoa(i+1) + "|" + argValueLabel(a)
				g.addNode(aKey, lbl)
				g.addEdge(mKey, aKey)
				// Recursively expand known abstract objects (not ⊤obj).
				if a.Kind == absdom.KObj && !w.chain[a.Obj.ID] {
					chain := map[int]bool{}
					for id := range w.chain {
						chain[id] = true
					}
					chain[a.Obj.ID] = true
					queue = append(queue, work{nodeKey: aKey, obj: a.Obj,
						depth: w.depth + 2, chain: chain})
				}
			}
		}
	}
	return g.seal()
}

// BuildAll constructs the DAGs for all abstract objects of the given type.
func BuildAll(res *analysis.Result, typ string, maxDepth int) []*Graph {
	var out []*Graph
	for _, o := range res.ObjsOfType(typ) {
		out = append(out, Build(res, o, maxDepth))
	}
	return out
}

// argValueLabel renders the identity part of an argument node: object
// arguments identify by type, everything else by its abstract-value label.
func argValueLabel(a absdom.Value) string {
	switch a.Kind {
	case absdom.KObj:
		return a.Obj.Type
	case absdom.KTopObj:
		if a.Type == "" {
			return "⊤obj"
		}
		return a.Type
	default:
		return a.Label()
	}
}

// argLabel renders an argument node's path-element label, e.g.
// `arg1:"AES"` or `arg3:IvParameterSpec`.
func argLabel(i int, a absdom.Value) string {
	return "arg" + strconv.Itoa(i) + ":" + argValueLabel(a)
}

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

// Path is a root-originating label sequence, e.g.
// ["Cipher", "getInstance", `arg1:"AES"`].
type Path []string

// String joins the path with " → " arrows for display.
func (p Path) String() string { return strings.Join(p, " → ") }

// Key returns a canonical identity string.
func (p Path) Key() string { return strings.Join(p, "\x00") }

// AppendKey appends the canonical identity of p (the same NUL-separated
// scheme as Key) to dst and returns the extended slice. Interners and
// fingerprinting loops use it with a reused buffer so building a lookup key
// does not allocate per path.
func (p Path) AppendKey(dst []byte) []byte {
	for i, el := range p {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, el...)
	}
	return dst
}

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether p is a (non-strict) prefix of q.
func (p Path) IsPrefixOf(q Path) bool {
	if len(p) > len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Paths returns every root-originating path of the graph (to every node,
// not only maximal ones), deduplicated, in deterministic order. The paths
// are enumerated once, when the graph is built; callers must not modify
// them.
func (g *Graph) Paths() []Path { return g.paths }

// SamePaths reports whether g and h have the same set of root paths —
// exactly when Diff(g, h) is empty. It compares the sorted path keys both
// graphs computed when they were built. Node sets are not enough: two DAGs
// over the same nodes can differ in their edges.
func SamePaths(g, h *Graph) bool { return slices.Equal(g.sorted, h.sorted) }

// Minus returns the paths of g that h does not have, in g's path order.
func (g *Graph) Minus(h *Graph) []Path {
	var out []Path
	for i, p := range g.paths {
		if _, found := slices.BinarySearch(h.sorted, g.keys[i]); !found {
			out = append(out, p)
		}
	}
	return out
}

// seal enumerates the finished graph's root paths and their keys.
func (g *Graph) seal() *Graph {
	seen := map[string]bool{}
	var walk func(key string, cur Path)
	walk = func(key string, cur Path) {
		next := append(append(Path{}, cur...), g.labels[key])
		if k := next.Key(); !seen[k] {
			seen[k] = true
			g.paths = append(g.paths, next)
			g.keys = append(g.keys, k)
		}
		for _, c := range g.edges[key] {
			walk(c, next)
		}
	}
	walk(g.Root, nil)
	g.sorted = slices.Clone(g.keys)
	slices.Sort(g.sorted)
	return g
}

// ---------------------------------------------------------------------------
// Distance and pairing (paper §3.5)
// ---------------------------------------------------------------------------

// Dist is the intersection-over-union node-set distance between two DAGs:
// dist(G1, G2) = 1 − |N1 ∩ N2| / |N1 ∪ N2|.
func Dist(g1, g2 *Graph) float64 {
	inter := 0
	for k := range g1.labels {
		if _, ok := g2.labels[k]; ok {
			inter++
		}
	}
	union := len(g1.labels) + len(g2.labels) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Pair matches the DAGs of the old version with those of the new version,
// minimizing the summed distance (maximum matching, paper §3.5). Version
// sets of unequal size are padded with root-only graphs. The result pairs
// are returned in old-graph order (padding first where the old side is
// smaller).
type PairResult struct {
	Old *Graph // root-only padding when the usage was added
	New *Graph // root-only padding when the usage was removed
}

// Pair computes the minimum-distance bijection between old and new DAGs.
func Pair(old, new []*Graph, typ string) []PairResult {
	n := len(old)
	if len(new) > n {
		n = len(new)
	}
	if n == 0 {
		return nil
	}
	padded := func(gs []*Graph) []*Graph {
		out := append([]*Graph{}, gs...)
		for len(out) < n {
			out = append(out, NewRootOnly(typ))
		}
		return out
	}
	po, pn := padded(old), padded(new)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = Dist(po[i], pn[j])
		}
	}
	assign := assignFn(cost)
	out := make([]PairResult, n)
	for i, j := range assign {
		out[i] = PairResult{Old: po[i], New: pn[j]}
	}
	return out
}

// assignFn is indirected for testing.
var assignFn = defaultAssign
