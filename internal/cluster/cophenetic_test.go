package cluster

import (
	"math"
	"testing"
)

func TestCopheneticMatrixTwoBlobs(t *testing.T) {
	d := twoBlobs()
	root := AgglomerateMatrix(d, Complete, nil, nil)
	coph := CopheneticMatrix(root, 6)
	// Within a blob, leaves merge at 0.1; across blobs at 0.9.
	if math.Abs(coph[0][1]-0.1) > 1e-12 {
		t.Errorf("intra-blob cophenetic = %v, want 0.1", coph[0][1])
	}
	if math.Abs(coph[0][4]-0.9) > 1e-12 {
		t.Errorf("inter-blob cophenetic = %v, want 0.9", coph[0][4])
	}
	// Symmetry, zero diagonal.
	for i := 0; i < 6; i++ {
		if coph[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v", i, i, coph[i][i])
		}
		for j := 0; j < 6; j++ {
			if coph[i][j] != coph[j][i] {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestCopheneticCorrelationPerfect(t *testing.T) {
	// An ultrametric input (two clean blobs) is represented exactly:
	// correlation 1.
	d := twoBlobs()
	root := AgglomerateMatrix(d, Complete, nil, nil)
	if c := CopheneticCorrelation(d, root); math.Abs(c-1) > 1e-9 {
		t.Errorf("correlation on ultrametric data = %v, want 1", c)
	}
}

func TestCopheneticCorrelationLinkages(t *testing.T) {
	// On a chain (non-ultrametric), complete and average linkage preserve
	// the metric at least as well as single linkage, which chains.
	d := [][]float64{
		{0.0, 0.1, 0.5, 0.9},
		{0.1, 0.0, 0.1, 0.5},
		{0.5, 0.1, 0.0, 0.1},
		{0.9, 0.5, 0.1, 0.0},
	}
	corr := map[Linkage]float64{}
	for _, l := range []Linkage{Complete, Single, Average} {
		corr[l] = CopheneticCorrelation(d, AgglomerateMatrix(d, l, nil, nil))
	}
	if corr[Single] > corr[Complete]+1e-9 {
		t.Errorf("single (%v) should not beat complete (%v) on a chain",
			corr[Single], corr[Complete])
	}
	for l, c := range corr {
		if c < -1-1e-9 || c > 1+1e-9 {
			t.Errorf("linkage %d: correlation %v out of range", l, c)
		}
	}
}

func TestCopheneticDegenerate(t *testing.T) {
	if c := CopheneticCorrelation(nil, nil); c != 0 {
		t.Errorf("nil input = %v", c)
	}
	one := [][]float64{{0}}
	if c := CopheneticCorrelation(one, &Node{Item: 0, size: 1}); c != 0 {
		t.Errorf("single leaf = %v", c)
	}
	// Zero-variance distances.
	flat := [][]float64{{0, 0.5, 0.5}, {0.5, 0, 0.5}, {0.5, 0.5, 0}}
	root := AgglomerateMatrix(flat, Complete, nil, nil)
	if c := CopheneticCorrelation(flat, root); c != 0 {
		t.Errorf("flat metric = %v, want 0 (zero variance)", c)
	}
}
