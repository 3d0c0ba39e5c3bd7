package gbt

import "domd/internal/ml/tree"

// MaxTreeDepth bounds the depth of every tree a Model holds, trained or
// loaded. The compiled layout stores a depth-d tree in 2^(d+1)−1 slots,
// so the bound keeps one tree's table near 80 KB; AutoHPT searches depths
// 2–8.
const MaxTreeDepth = 12

// ensemble is a Model's trees compiled into complete binary trees laid
// out as implicit heaps: an array-laid-out ensemble in its plainest form
// (see QuickScorer, Lucchese et al., SIGIR 2015, for a bitvector one).
// Tree t of depth d owns n = 2^d−1 consecutive split slots of feat/thr
// and 2^d consecutive leaves of leaf. Heap index i < n is split slot i,
// with children 2i+1 and 2i+2; an index i ≥ n is leaf i−n, left to right.
//
// A pointer-tree leaf above depth d is padded: the split slots under it
// read column 0 and every leaf under it carries its weight, so whichever
// way those splits go — NaN included — the walk lands on the same weight.
// Each real split keeps its column, threshold and "x[f] < thr goes left"
// comparison, so a compiled walk reaches exactly the weight the pointer
// walk reaches, and Predict sums those weights in tree order: predictions
// are bitwise equal to the pointer trees'.
type ensemble struct {
	depth []uint8
	feat  []int32
	thr   []float64
	leaf  []float64
}

// compile rebuilds m's ensemble from m.trees. It runs wherever m.trees
// changes (Fit, UnmarshalJSON); Predict reads only the ensemble.
func (m *Model) compile() {
	depths := make([]uint8, len(m.trees))
	splits, leaves := 0, 0
	for t, root := range m.trees {
		d := root.Depth()
		depths[t] = uint8(d)
		splits += 1<<d - 1
		leaves += 1 << d
	}
	e := ensemble{
		depth: depths,
		feat:  make([]int32, 0, splits),
		thr:   make([]float64, 0, splits),
		leaf:  make([]float64, 0, leaves),
	}
	for t, root := range m.trees {
		n := 1<<depths[t] - 1
		so, lo := len(e.feat), len(e.leaf)
		e.feat = e.feat[:so+n]
		e.thr = e.thr[:so+n]
		e.leaf = e.leaf[:lo+n+1]
		e.place(root, so, lo, n, 0)
	}
	m.flat = e
}

// place writes node into the tree whose split slots start at so and
// leaves at lo, at heap slot i (n split slots in all).
func (e *ensemble) place(node *tree.Node, so, lo, n, i int) {
	if i >= n {
		e.leaf[lo+i-n] = node.Weight
		return
	}
	left, right := node, node // a leaf above the bottom pads both sides
	if !node.IsLeaf() {
		e.feat[so+i] = int32(node.Feature)
		e.thr[so+i] = node.Threshold
		left, right = node.Left, node.Right
	}
	e.place(left, so, lo, n, 2*i+1)
	e.place(right, so, lo, n, 2*i+2)
}

// predict walks every compiled tree: d steps of i = 2i+1+b with b = 0 when
// x[feat] < thr and 1 otherwise (NaN goes right, as in tree.Node.LeafFor).
// Runs of four trees of one depth walk side by side, so the CPU overlaps
// their load chains; their weights are still added in tree order.
func (e *ensemble) predict(base, eta float64, x []float64) float64 {
	out := base
	depth, feat, thr, leaf := e.depth, e.feat, e.thr, e.leaf
	so, lo := 0, 0
	for t := 0; t < len(depth); {
		d := depth[t]
		n := 1<<d - 1
		if t+4 <= len(depth) && depth[t+1] == d && depth[t+2] == d && depth[t+3] == d {
			s0, s1, s2, s3 := so, so+n, so+2*n, so+3*n
			i0, i1, i2, i3 := 0, 0, 0, 0
			for range d {
				i0 = 2*i0 + 1 + right(x[feat[s0+i0]], thr[s0+i0])
				i1 = 2*i1 + 1 + right(x[feat[s1+i1]], thr[s1+i1])
				i2 = 2*i2 + 1 + right(x[feat[s2+i2]], thr[s2+i2])
				i3 = 2*i3 + 1 + right(x[feat[s3+i3]], thr[s3+i3])
			}
			out += eta * leaf[lo+i0-n]
			out += eta * leaf[lo+(n+1)+i1-n]
			out += eta * leaf[lo+2*(n+1)+i2-n]
			out += eta * leaf[lo+3*(n+1)+i3-n]
			t, so, lo = t+4, so+4*n, lo+4*(n+1)
			continue
		}
		i := 0
		for range d {
			i = 2*i + 1 + right(x[feat[so+i]], thr[so+i])
		}
		out += eta * leaf[lo+i-n]
		t, so, lo = t+1, so+n, lo+n+1
	}
	return out
}

// right is the branch a split takes: 0 (left) when v < thr, else 1.
func right(v, thr float64) int {
	if v < thr {
		return 0
	}
	return 1
}
