package usage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cryptoapi"
)

const oldSrc = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES";
    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
        } catch (Exception e) {}
    }
}
`

const newSrc = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) {
        try {
            byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
            IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}
`

func buildOne(t *testing.T, src string) *Graph {
	t.Helper()
	res := analysis.AnalyzeSource(src, analysis.Options{})
	objs := res.ObjsOfType(cryptoapi.Cipher)
	if len(objs) != 1 {
		t.Fatalf("cipher objects = %d, want 1", len(objs))
	}
	return Build(res, objs[0], DefaultDepth)
}

// TestPaperFigure2DAGs reconstructs Figures 2(b) and 2(c) and checks the
// node sets and the 1/2 distance computed in §3.5.
func TestPaperFigure2DAGs(t *testing.T) {
	g1 := buildOne(t, oldSrc)
	g2 := buildOne(t, newSrc)

	// Figure 2(b): 6 nodes.
	wantOld := []string{
		"T|Cipher",
		"M|Cipher.getInstance",
		"M|Cipher.init",
		`A|1|"AES"`,
		"A|1|ENCRYPT_MODE",
		"A|2|Secret",
	}
	if g1.NodeCount() != len(wantOld) {
		t.Errorf("old DAG nodes = %d, want %d: %v", g1.NodeCount(), len(wantOld), keys(g1))
	}
	for _, k := range wantOld {
		if !g1.NodeSet()[k] {
			t.Errorf("old DAG missing node %q (have %v)", k, keys(g1))
		}
	}

	// Figure 2(c): 9 nodes, including the expanded IvParameterSpec ctor.
	wantNew := []string{
		"T|Cipher",
		"M|Cipher.getInstance",
		"M|Cipher.init",
		`A|1|"AES/CBC/PKCS5Padding"`,
		"A|1|ENCRYPT_MODE",
		"A|2|Secret",
		"A|3|IvParameterSpec",
		"M|IvParameterSpec.<init>",
		"A|1|⊤byte[]",
	}
	if g2.NodeCount() != len(wantNew) {
		t.Errorf("new DAG nodes = %d, want %d: %v", g2.NodeCount(), len(wantNew), keys(g2))
	}
	for _, k := range wantNew {
		if !g2.NodeSet()[k] {
			t.Errorf("new DAG missing node %q (have %v)", k, keys(g2))
		}
	}

	// §3.5: dist(G1, G2) = 1/2 for this pair.
	if d := Dist(g1, g2); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("Dist = %v, want 0.5 (the paper's worked example)", d)
	}
}

func keys(g *Graph) []string {
	var out []string
	for k := range g.NodeSet() {
		out = append(out, k)
	}
	return out
}

func TestPathsEnumeration(t *testing.T) {
	g := buildOne(t, newSrc)
	paths := map[string]bool{}
	for _, p := range g.Paths() {
		paths[p.String()] = true
	}
	want := []string{
		"Cipher",
		"Cipher → getInstance",
		`Cipher → getInstance → arg1:"AES/CBC/PKCS5Padding"`,
		"Cipher → init",
		"Cipher → init → arg1:ENCRYPT_MODE",
		"Cipher → init → arg2:Secret",
		"Cipher → init → arg3:IvParameterSpec",
		"Cipher → init → arg3:IvParameterSpec → <init>",
		"Cipher → init → arg3:IvParameterSpec → <init> → arg1:⊤byte[]",
	}
	if len(paths) != len(want) {
		t.Errorf("paths = %d, want %d:\n%s", len(paths), len(want), renderPaths(g))
	}
	for _, w := range want {
		if !paths[w] {
			t.Errorf("missing path %q\nhave:\n%s", w, renderPaths(g))
		}
	}
}

func renderPaths(g *Graph) string {
	var sb strings.Builder
	for _, p := range g.Paths() {
		sb.WriteString("  " + p.String() + "\n")
	}
	return sb.String()
}

func TestDepthBound(t *testing.T) {
	// Depth 1 keeps only the root and method nodes; depth 3 stops before
	// the nested <init> argument.
	res := analysis.AnalyzeSource(newSrc, analysis.Options{})
	obj := res.ObjsOfType(cryptoapi.Cipher)[0]
	g1 := Build(res, obj, 1)
	for k := range g1.NodeSet() {
		if strings.HasPrefix(k, "A|") {
			t.Errorf("depth-1 DAG contains argument node %q", k)
		}
	}
	g3 := Build(res, obj, 3)
	if g3.NodeSet()["A|1|⊤byte[]"] {
		t.Error("depth-3 DAG contains depth-4 node")
	}
	if !g3.NodeSet()["M|IvParameterSpec.<init>"] {
		t.Error("depth-3 DAG lost the depth-3 method node")
	}
}

func TestRootOnly(t *testing.T) {
	g := NewRootOnly("Cipher")
	if g.NodeCount() != 1 || !g.NodeSet()["T|Cipher"] {
		t.Fatalf("root-only graph wrong: %v", keys(g))
	}
	if len(g.Paths()) != 1 {
		t.Errorf("paths = %d", len(g.Paths()))
	}
	full := buildOne(t, oldSrc)
	d := Dist(g, full)
	// Intersection = {root}, union = 6 → 1 - 1/6.
	if math.Abs(d-(1-1.0/6)) > 1e-12 {
		t.Errorf("dist to root-only = %v", d)
	}
}

func TestDistProperties(t *testing.T) {
	g1 := buildOne(t, oldSrc)
	g2 := buildOne(t, newSrc)
	if Dist(g1, g1) != 0 {
		t.Error("self distance not 0")
	}
	if Dist(g1, g2) != Dist(g2, g1) {
		t.Error("distance not symmetric")
	}
	if d := Dist(g1, g2); d < 0 || d > 1 {
		t.Errorf("distance out of range: %v", d)
	}
}

func TestPairBySimilarity(t *testing.T) {
	// Old has [AES-cipher, DES-cipher]; new has [DES-cipher, AES-cipher]
	// (reordered). Pairing must match by content, not order.
	oldRes := analysis.AnalyzeSource(`
class A {
    void m(Key k) throws Exception {
        Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
        a.init(Cipher.ENCRYPT_MODE, k);
        Cipher d = Cipher.getInstance("DES");
        d.init(Cipher.DECRYPT_MODE, k);
    }
}
`, analysis.Options{})
	newRes := analysis.AnalyzeSource(`
class A {
    void m(Key k) throws Exception {
        Cipher d = Cipher.getInstance("DES");
        d.init(Cipher.DECRYPT_MODE, k);
        Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
        a.init(Cipher.ENCRYPT_MODE, k);
    }
}
`, analysis.Options{})
	oldGs := BuildAll(oldRes, cryptoapi.Cipher, DefaultDepth)
	newGs := BuildAll(newRes, cryptoapi.Cipher, DefaultDepth)
	pairs := Pair(oldGs, newGs, cryptoapi.Cipher)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, pr := range pairs {
		if d := Dist(pr.Old, pr.New); d != 0 {
			t.Errorf("pairing not content-based: dist = %v", d)
		}
	}
}

func TestPairUnequalCounts(t *testing.T) {
	res := analysis.AnalyzeSource(oldSrc, analysis.Options{})
	gs := BuildAll(res, cryptoapi.Cipher, DefaultDepth)
	pairs := Pair(nil, gs, cryptoapi.Cipher)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0].Old.NodeCount() != 1 {
		t.Error("old side not padded with root-only graph")
	}
	pairs = Pair(gs, nil, cryptoapi.Cipher)
	if len(pairs) != 1 || pairs[0].New.NodeCount() != 1 {
		t.Error("new side not padded with root-only graph")
	}
	if Pair(nil, nil, cryptoapi.Cipher) != nil {
		t.Error("empty pairing should be nil")
	}
}

func TestCycleGuard(t *testing.T) {
	// Two objects that reference each other through method arguments must
	// not loop the builder.
	src := `
class A {
    void m() throws Exception {
        Mac m1 = Mac.getInstance("HmacSHA256");
        Mac m2 = Mac.getInstance("HmacSHA1");
        m1.verify(m2);
        m2.verify(m1);
    }
}
`
	res := analysis.AnalyzeSource(src, analysis.Options{})
	objs := res.ObjsOfType(cryptoapi.Mac)
	if len(objs) != 2 {
		t.Fatalf("mac objects = %d", len(objs))
	}
	g := Build(res, objs[0], DefaultDepth)
	if g.NodeCount() == 0 {
		t.Fatal("empty graph")
	}
	for _, p := range g.Paths() {
		if len(p) > DefaultDepth+1 {
			t.Errorf("path exceeds depth bound: %v", p)
		}
	}
}

func TestPathPrefix(t *testing.T) {
	p := Path{"a", "b"}
	q := Path{"a", "b", "c"}
	if !p.IsPrefixOf(q) {
		t.Error("prefix not detected")
	}
	if q.IsPrefixOf(p) {
		t.Error("longer path cannot be prefix of shorter")
	}
	if !p.IsPrefixOf(p) {
		t.Error("path is a (non-strict) prefix of itself")
	}
	if (Path{"a", "x"}).IsPrefixOf(q) {
		t.Error("mismatching path detected as prefix")
	}
}

func BenchmarkBuildDAG(b *testing.B) {
	res := analysis.AnalyzeSource(newSrc, analysis.Options{})
	obj := res.ObjsOfType(cryptoapi.Cipher)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(res, obj, DefaultDepth)
	}
}

func TestDOTExport(t *testing.T) {
	g := buildOne(t, newSrc)
	dot := g.DOT("enc")
	for _, want := range []string{
		"digraph \"enc\"", "doublecircle", "shape=box",
		`label="Cipher"`, `label="getInstance"`, "->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Every edge references declared nodes.
	lines := strings.Split(dot, "\n")
	declared := map[string]bool{}
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if strings.HasPrefix(l, "n") && strings.Contains(l, "[label=") {
			declared[strings.Fields(l)[0]] = true
		}
	}
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if strings.Contains(l, "->") {
			parts := strings.Split(strings.TrimSuffix(l, ";"), "->")
			for _, p := range parts {
				if p = strings.TrimSpace(p); !declared[p] {
					t.Errorf("edge references undeclared node %q", p)
				}
			}
		}
	}
	// Deterministic output.
	if g.DOT("enc") != dot {
		t.Error("DOT rendering not deterministic")
	}
}

// refAddEdge is addEdge with a set of seen edges and the cycle search run
// on every insertion.
func refAddEdge(g *Graph, seen map[[2]string]bool, from, to string) {
	if seen[[2]string{from, to}] || g.reaches(to, from) {
		return
	}
	seen[[2]string{from, to}] = true
	g.edges[from] = append(g.edges[from], to)
}

// refPathSet is the set of path keys of a graph, enumerated afresh.
func refPathSet(g *Graph) map[string]bool {
	set := map[string]bool{}
	var walk func(key string, cur Path)
	walk = func(key string, cur Path) {
		next := append(append(Path{}, cur...), g.labels[key])
		set[next.Key()] = true
		for _, c := range g.edges[key] {
			walk(c, next)
		}
	}
	walk(g.Root, nil)
	return set
}

// TestDifferentialGraphShortcuts checks the graph's fast paths on random
// DAGs over a small label alphabet (so distinct nodes share labels and
// paths collide): addEdge's skipped cycle search must keep exactly the
// edges of the always-searching reference, and SamePaths and Minus, which
// read the keys sealed at build time, must agree with path sets enumerated
// afresh — including on pairs with equal node sets and different edges.
func TestDifferentialGraphShortcuts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var gs []*Graph
	for iter := 0; iter < 400; iter++ {
		g, ref, seen := newGraph("T"), newGraph("T"), map[[2]string]bool{}
		nodes := []string{g.Root}
		n := 2 + rng.Intn(6)
		for i := 1; i < n; i++ {
			k, label := fmt.Sprintf("N|%d", i), fmt.Sprintf("l%d", rng.Intn(3))
			g.addNode(k, label)
			ref.addNode(k, label)
			nodes = append(nodes, k)
		}
		for e := 0; e < 3*len(nodes); e++ {
			from, to := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			g.addEdge(from, to)
			refAddEdge(ref, seen, from, to)
		}
		if !reflect.DeepEqual(g.edges, ref.edges) {
			t.Fatalf("graph %d: edges %v, want %v", iter, g.edges, ref.edges)
		}
		gs = append(gs, g.seal())
	}
	sameNodes, differentPaths := 0, 0
	for i, g := range gs {
		gSet := refPathSet(g)
		if len(gSet) != len(g.Paths()) {
			t.Fatalf("graph %d: %d paths, want %d", i, len(g.Paths()), len(gSet))
		}
		for j, h := range gs[max(0, i-20) : i+1] {
			hSet := refPathSet(h)
			if got, want := SamePaths(g, h), reflect.DeepEqual(gSet, hSet); got != want {
				t.Fatalf("graphs %d/%d: SamePaths = %v, want %v", i, j, got, want)
			}
			for _, p := range g.Minus(h) {
				if hSet[p.Key()] {
					t.Fatalf("graphs %d/%d: Minus kept shared path %v", i, j, p)
				}
			}
			kept := len(g.Minus(h))
			for k := range gSet {
				if !hSet[k] {
					kept--
				}
			}
			if kept != 0 {
				t.Fatalf("graphs %d/%d: Minus is off by %d paths", i, j, kept)
			}
			if Dist(g, h) == 0 {
				sameNodes++
				if !SamePaths(g, h) {
					differentPaths++
				}
			}
		}
	}
	if differentPaths == 0 {
		t.Errorf("no pair with equal node sets and different paths among %d equal-node pairs", sameNodes)
	}
}
