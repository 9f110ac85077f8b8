package cluster

import (
	"math"
	"testing"
)

// twoBlobs builds a distance matrix with two tight groups far apart:
// items 0-2 and items 3-5.
func twoBlobs() [][]float64 {
	n := 6
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	same := func(i, j int) bool { return (i < 3) == (j < 3) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if same(i, j) {
				d[i][j] = 0.1
			} else {
				d[i][j] = 0.9
			}
		}
	}
	return d
}

func TestSilhouetteTwoBlobs(t *testing.T) {
	d := twoBlobs()
	good := [][]int{{0, 1, 2}, {3, 4, 5}}
	bad := [][]int{{0, 1, 3}, {2, 4, 5}}
	sg := Silhouette(d, good)
	sb := Silhouette(d, bad)
	if sg <= sb {
		t.Errorf("correct partition (%v) should score above mixed (%v)", sg, sb)
	}
	if sg < 0.7 {
		t.Errorf("clean partition silhouette = %v, want high", sg)
	}
	// Expected value: a=0.1, b=0.9 → (0.9-0.1)/0.9 ≈ 0.888...
	if math.Abs(sg-8.0/9.0) > 1e-9 {
		t.Errorf("silhouette = %v, want %v", sg, 8.0/9.0)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	d := twoBlobs()
	if s := Silhouette(d, [][]int{{0, 1, 2, 3, 4, 5}}); s != 0 {
		t.Errorf("single cluster silhouette = %v", s)
	}
	allSingles := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	if s := Silhouette(d, allSingles); s != 0 {
		t.Errorf("all-singleton silhouette = %v", s)
	}
}

func TestCutAutoFindsBlobs(t *testing.T) {
	d := twoBlobs()
	root := AgglomerateMatrix(d, Complete, nil, nil)
	clusters, th := CutAuto(root, d)
	if len(clusters) != 2 {
		t.Fatalf("auto cut found %d clusters (th=%v): %v", len(clusters), th, clusters)
	}
	for _, cl := range clusters {
		if len(cl) != 3 {
			t.Errorf("cluster sizes wrong: %v", clusters)
		}
		first := cl[0] < 3
		for _, i := range cl {
			if (i < 3) != first {
				t.Errorf("mixed cluster: %v", cl)
			}
		}
	}
}

func TestCutAutoThreeGroups(t *testing.T) {
	// Three groups of two with clear separation.
	n := 6
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	group := func(i int) int { return i / 2 }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if group(i) == group(j) {
				d[i][j] = 0.05
			} else {
				d[i][j] = 1.0
			}
		}
	}
	root := AgglomerateMatrix(d, Complete, nil, nil)
	clusters, _ := CutAuto(root, d)
	if len(clusters) != 3 {
		t.Fatalf("auto cut = %v, want 3 pairs", clusters)
	}
}

func TestCutAutoTrivialInputs(t *testing.T) {
	if cl, _ := CutAuto(nil, nil); cl != nil {
		t.Error("nil root should give nil")
	}
	leaf := &Node{Item: 0, size: 1}
	cl, _ := CutAuto(leaf, [][]float64{{0}})
	if len(cl) != 1 || cl[0][0] != 0 {
		t.Errorf("leaf cut = %v", cl)
	}
	// Two items: falls back to the sub-root cut.
	d := [][]float64{{0, 0.5}, {0.5, 0}}
	root := AgglomerateMatrix(d, Complete, nil, nil)
	cl, _ = CutAuto(root, d)
	if len(cl) != 2 {
		t.Errorf("two-item cut = %v", cl)
	}
}
