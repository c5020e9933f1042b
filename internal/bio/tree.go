package bio

import (
	"fmt"
	"math"

	"repro/internal/profiler"
)

// TreeNode is a node of a (rooted, binary) guide tree. Leaves carry the
// index of a sequence; internal nodes carry their children.
type TreeNode struct {
	// Leaf is the sequence index for leaves, -1 for internal nodes.
	Leaf int
	// Left and Right are nil for leaves.
	Left, Right *TreeNode
	// LeftLen and RightLen are the branch lengths to the children,
	// estimated by the tree algorithm; they drive sequence weighting.
	LeftLen, RightLen float64
	// Height orders internal nodes by join time (UPGMA) or join step (NJ).
	Height float64
}

// IsLeaf reports whether the node is a leaf.
func (t *TreeNode) IsLeaf() bool { return t.Left == nil && t.Right == nil }

// Leaves returns the sequence indices under the node in left-to-right order.
func (t *TreeNode) Leaves() []int {
	if t == nil {
		return nil
	}
	if t.IsLeaf() {
		return []int{t.Leaf}
	}
	return append(t.Left.Leaves(), t.Right.Leaves()...)
}

func validateDistances(d [][]float64) error {
	n := len(d)
	if n < 2 {
		return fmt.Errorf("bio: guide tree needs ≥2 taxa, got %d", n)
	}
	for i := range d {
		if len(d[i]) != n {
			return fmt.Errorf("bio: distance matrix row %d has %d entries, want %d", i, len(d[i]), n)
		}
		if d[i][i] != 0 {
			return fmt.Errorf("bio: non-zero self distance at %d", i)
		}
		for j := range d[i] {
			if d[i][j] < 0 {
				return fmt.Errorf("bio: negative distance d[%d][%d]=%g", i, j, d[i][j])
			}
			if d[i][j] != d[j][i] {
				return fmt.Errorf("bio: asymmetric distances at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// NeighborJoining builds a guide tree with the neighbour-joining algorithm
// (Saitou & Nei), ClustalW's default. The returned tree is rooted at the
// final join.
func NeighborJoining(dist [][]float64, prof *profiler.Profiler) (*TreeNode, error) {
	if err := validateDistances(dist); err != nil {
		return nil, err
	}
	defer prof.Enter("nj_tree")()
	n := len(dist)
	// Working copies.
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	nodes := make([]*TreeNode, n)
	for i := range nodes {
		nodes[i] = &TreeNode{Leaf: i}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	step := 0.0
	for len(active) > 2 {
		m := len(active)
		// Row sums over active taxa.
		rowSum := make([]float64, m)
		for ai, i := range active {
			for _, j := range active {
				rowSum[ai] += d[i][j]
			}
		}
		// Minimize Q(i,j) = (m-2)·d(i,j) − r(i) − r(j).
		bestA, bestB := 0, 1
		bestQ := 0.0
		first := true
		for ai := 0; ai < m; ai++ {
			for bi := ai + 1; bi < m; bi++ {
				q := float64(m-2)*d[active[ai]][active[bi]] - rowSum[ai] - rowSum[bi]
				if first || q < bestQ {
					first = false
					bestQ = q
					bestA, bestB = ai, bi
				}
			}
		}
		i, j := active[bestA], active[bestB]
		step++
		// Limb lengths (Saitou & Nei):
		// l_i = d(i,j)/2 + (r_i − r_j)/(2(m−2)),  l_j = d(i,j) − l_i.
		li := d[i][j]/2 + (rowSum[bestA]-rowSum[bestB])/(2*float64(m-2))
		lj := d[i][j] - li
		if li < 0 {
			li = 0
		}
		if lj < 0 {
			lj = 0
		}
		parent := &TreeNode{Leaf: -1, Left: nodes[i], Right: nodes[j], LeftLen: li, RightLen: lj, Height: step}
		// Distances from the new node u to every other active node k:
		// d(u,k) = (d(i,k)+d(j,k)−d(i,j))/2.
		for _, k := range active {
			if k == i || k == j {
				continue
			}
			nd := (d[i][k] + d[j][k] - d[i][j]) / 2
			if nd < 0 {
				nd = 0
			}
			d[i][k] = nd
			d[k][i] = nd
		}
		nodes[i] = parent
		// Remove j from the active set.
		active = append(active[:bestB], active[bestB+1:]...)
	}
	i, j := active[0], active[1]
	half := d[i][j] / 2
	if half < 0 {
		half = 0
	}
	return &TreeNode{Leaf: -1, Left: nodes[i], Right: nodes[j], LeftLen: half, RightLen: half, Height: step + 1}, nil
}

// UPGMA builds a guide tree by unweighted pair-group averaging, the
// alternative ClustalW offers; used by the guide-tree ablation benchmark.
func UPGMA(dist [][]float64, prof *profiler.Profiler) (*TreeNode, error) {
	if err := validateDistances(dist); err != nil {
		return nil, err
	}
	defer prof.Enter("upgma")()
	n := len(dist)
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	nodes := make([]*TreeNode, n)
	sizes := make([]int, n)
	for i := range nodes {
		nodes[i] = &TreeNode{Leaf: i}
		sizes[i] = 1
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for len(active) > 1 {
		bestA, bestB := 0, 1
		first := true
		var bestD float64
		for ai := 0; ai < len(active); ai++ {
			for bi := ai + 1; bi < len(active); bi++ {
				dd := d[active[ai]][active[bi]]
				if first || dd < bestD {
					first = false
					bestD = dd
					bestA, bestB = ai, bi
				}
			}
		}
		i, j := active[bestA], active[bestB]
		h := bestD / 2
		parent := &TreeNode{
			Leaf: -1, Left: nodes[i], Right: nodes[j], Height: h,
			LeftLen:  maxf(h-nodes[i].Height, 0),
			RightLen: maxf(h-nodes[j].Height, 0),
		}
		// Size-weighted average distance to the merged cluster.
		for _, k := range active {
			if k == i || k == j {
				continue
			}
			nd := (d[i][k]*float64(sizes[i]) + d[j][k]*float64(sizes[j])) / float64(sizes[i]+sizes[j])
			d[i][k] = nd
			d[k][i] = nd
		}
		nodes[i] = parent
		sizes[i] += sizes[j]
		active = append(active[:bestB], active[bestB+1:]...)
	}
	return nodes[active[0]], nil
}

// KimuraDistance converts an observed fractional identity into a Kimura
// (1983) corrected evolutionary distance, the transformation ClustalW
// applies to percent identities before building the guide tree: observed
// differences undercount multiple substitutions at one site.
//
//	D = 1 - identity;  distance = -ln(1 - D - D²/5)
//
// Identities so low the correction diverges saturate at 10 (ClustalW caps
// large corrected distances similarly).
func KimuraDistance(identity float64) float64 {
	if identity < 0 {
		identity = 0
	}
	if identity > 1 {
		identity = 1
	}
	d := 1 - identity
	arg := 1 - d - d*d/5
	if arg <= 1e-9 {
		return 10
	}
	dist := -math.Log(arg)
	if dist > 10 {
		return 10
	}
	return dist
}

// KimuraMatrix applies the Kimura correction to a matrix of pairwise
// distances expressed as 1-identity (the PairAlignAll output).
func KimuraMatrix(dist [][]float64) [][]float64 {
	out := make([][]float64, len(dist))
	for i := range dist {
		out[i] = make([]float64, len(dist[i]))
		for j := range dist[i] {
			if i == j {
				continue
			}
			out[i][j] = KimuraDistance(1 - dist[i][j])
		}
	}
	return out
}
