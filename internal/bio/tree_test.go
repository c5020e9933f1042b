package bio

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// fourTaxa is the classic additive matrix where NJ must pair (0,1) and (2,3).
func fourTaxa() [][]float64 {
	return [][]float64{
		{0, 2, 7, 7},
		{2, 0, 7, 7},
		{7, 7, 0, 2},
		{7, 7, 2, 0},
	}
}

func leavesSorted(t *TreeNode) []int {
	ls := t.Leaves()
	sort.Ints(ls)
	return ls
}

func TestNJCoversAllLeaves(t *testing.T) {
	tree, err := NeighborJoining(fourTaxa(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ls := leavesSorted(tree)
	if len(ls) != 4 {
		t.Fatalf("leaves = %v", ls)
	}
	for i, l := range ls {
		if l != i {
			t.Fatalf("leaves = %v, want 0..3", ls)
		}
	}
}

// hasClade reports whether some subtree's leaf set is exactly want.
func hasClade(t *TreeNode, want []int) bool {
	if t == nil {
		return false
	}
	ls := t.Leaves()
	if len(ls) == len(want) {
		sort.Ints(ls)
		match := true
		for i := range ls {
			if ls[i] != want[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return hasClade(t.Left, want) || hasClade(t.Right, want)
}

func TestNJRecoversSisterPairs(t *testing.T) {
	tree, err := NeighborJoining(fourTaxa(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The unrooted topology must separate {0,1} from {2,3}; in the rooted
	// rendering that means at least one of the two cherries is a clade.
	if !hasClade(tree, []int{0, 1}) && !hasClade(tree, []int{2, 3}) {
		t.Errorf("NJ tree %s does not recover sister pairs", tree.Newick())
	}
	// And the wrong pairings must NOT both appear as clades.
	if hasClade(tree, []int{0, 2}) || hasClade(tree, []int{1, 3}) {
		t.Errorf("NJ tree %s groups non-sisters", tree.Newick())
	}
}

func TestUPGMARecoversUltrametricTree(t *testing.T) {
	// Ultrametric: heights 1 for (0,1), 2 for ((0,1),2).
	d := [][]float64{
		{0, 2, 4},
		{2, 0, 4},
		{4, 4, 0},
	}
	tree, err := UPGMA(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw := tree.Newick()
	if !strings.Contains(nw, "(0,1)") && !strings.Contains(nw, "(1,0)") {
		t.Errorf("UPGMA tree %s should pair taxa 0,1 first", nw)
	}
	if len(leavesSorted(tree)) != 3 {
		t.Error("leaf coverage")
	}
}

func TestGuideTreeValidation(t *testing.T) {
	bad := [][][]float64{
		nil,
		{{0}},
		{{0, 1}, {1, 0, 0}}, // ragged
		{{0.5, 1}, {1, 0}},  // non-zero diagonal
		{{0, -1}, {-1, 0}},  // negative
		{{0, 1}, {2, 0}},    // asymmetric
	}
	for i, d := range bad {
		if _, err := NeighborJoining(d, nil); err == nil {
			t.Errorf("NJ accepted bad matrix %d", i)
		}
		if _, err := UPGMA(d, nil); err == nil {
			t.Errorf("UPGMA accepted bad matrix %d", i)
		}
	}
}

func TestTwoTaxaTree(t *testing.T) {
	d := [][]float64{{0, 1}, {1, 0}}
	tree, err := NeighborJoining(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.IsLeaf() || !tree.Left.IsLeaf() || !tree.Right.IsLeaf() {
		t.Error("two-taxon tree should be a single join of two leaves")
	}
	if tree.Newick() != "(0,1);" && tree.Newick() != "(1,0);" {
		t.Errorf("Newick = %s", tree.Newick())
	}
}

func TestTreeNodeHelpers(t *testing.T) {
	var nilTree *TreeNode
	if nilTree.Leaves() != nil {
		t.Error("nil tree should have no leaves")
	}
	leaf := &TreeNode{Leaf: 3}
	if !leaf.IsLeaf() || leaf.Newick() != "3;" {
		t.Error("leaf helpers broken")
	}
}

func TestNJLargerMatrixIsBinaryAndComplete(t *testing.T) {
	// A 7-taxon matrix derived from a chain topology.
	n := 7
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			diff := i - j
			if diff < 0 {
				diff = -diff
			}
			d[i][j] = float64(diff)
		}
	}
	tree, err := NeighborJoining(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := leavesSorted(tree); len(got) != n {
		t.Fatalf("leaves = %v", got)
	}
	// Binary: every internal node has exactly two children.
	var check func(*TreeNode) bool
	check = func(t *TreeNode) bool {
		if t.IsLeaf() {
			return true
		}
		if t.Left == nil || t.Right == nil {
			return false
		}
		return check(t.Left) && check(t.Right)
	}
	if !check(tree) {
		t.Error("tree is not strictly binary")
	}
}

func TestKimuraDistance(t *testing.T) {
	if KimuraDistance(1) != 0 {
		t.Errorf("identical sequences distance = %v", KimuraDistance(1))
	}
	// Correction always at least the raw distance, growing with divergence.
	prev := 0.0
	for _, id := range []float64{0.95, 0.9, 0.8, 0.6, 0.4} {
		d := KimuraDistance(id)
		raw := 1 - id
		if d < raw {
			t.Errorf("correction shrank the distance at identity %v: %v < %v", id, d, raw)
		}
		if d <= prev {
			t.Errorf("correction not monotone at identity %v", id)
		}
		prev = d
	}
	if KimuraDistance(0.05) != 10 {
		t.Errorf("diverged pair should saturate at 10, got %v", KimuraDistance(0.05))
	}
	if KimuraDistance(-1) != 10 || KimuraDistance(2) != 0 {
		t.Error("identity clamping broken")
	}
}

func TestKimuraMatrix(t *testing.T) {
	raw := [][]float64{
		{0, 0.2},
		{0.2, 0},
	}
	k := KimuraMatrix(raw)
	if k[0][0] != 0 || k[1][1] != 0 {
		t.Error("diagonal changed")
	}
	if k[0][1] <= 0.2 || k[0][1] != k[1][0] {
		t.Errorf("corrected = %v", k[0][1])
	}
	// A corrected matrix still builds a valid tree.
	if _, err := NeighborJoining(k, nil); err != nil {
		t.Errorf("NJ on corrected matrix: %v", err)
	}
}

// Newick renders the tree in Newick notation with seq indices as labels.
func (t *TreeNode) Newick() string {
	var b strings.Builder
	t.newick(&b)
	b.WriteByte(';')
	return b.String()
}

func (t *TreeNode) newick(b *strings.Builder) {
	if t.IsLeaf() {
		fmt.Fprintf(b, "%d", t.Leaf)
		return
	}
	b.WriteByte('(')
	t.Left.newick(b)
	b.WriteByte(',')
	t.Right.newick(b)
	b.WriteByte(')')
}
