// Package tree implements the regularized Newton regression tree that
// underlies the framework's XGBoost-style booster (paper §3.2.2, citing Chen
// & Guestrin). A tree is grown by exact greedy split search on per-instance
// first and second loss derivatives (g, h); each leaf takes the closed-form
// weight w* = -G/(H+λ) and each split must improve the regularized objective
// by more than γ. As in XGBoost's exact method, every column is sorted once
// per booster (Presorted) and each node scans its rows in that order, so
// growing a tree sorts nothing.
//
// Fitting a single tree with g_i = -y_i and h_i = 1 reproduces a classical
// CART regression tree (leaf = mean target, variance-reduction splits), which
// is how the package doubles as a standalone tree learner.
package tree

import (
	"cmp"
	"fmt"
	"slices"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth limits tree depth; depth 0 means a single leaf.
	MaxDepth int
	// MinChildWeight is the minimum hessian sum per child (XGBoost's
	// min_child_weight); splits creating lighter children are rejected.
	MinChildWeight float64
	// Lambda is the L2 regularization on leaf weights.
	Lambda float64
	// Gamma is the minimum split gain (complexity penalty per leaf).
	Gamma float64
	// MinSamplesSplit rejects splitting nodes with fewer rows.
	MinSamplesSplit int
}

// DefaultConfig mirrors common XGBoost defaults.
func DefaultConfig() Config {
	return Config{
		MaxDepth:        6,
		MinChildWeight:  1,
		Lambda:          1,
		Gamma:           0,
		MinSamplesSplit: 2,
	}
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.MaxDepth < 0 {
		return fmt.Errorf("tree: max depth %d < 0", c.MaxDepth)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("tree: lambda %f < 0", c.Lambda)
	}
	if c.Gamma < 0 {
		return fmt.Errorf("tree: gamma %f < 0", c.Gamma)
	}
	if c.MinChildWeight < 0 {
		return fmt.Errorf("tree: min child weight %f < 0", c.MinChildWeight)
	}
	return nil
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	// Feature is the split column, or -1 for a leaf.
	Feature int
	// Threshold: rows with x[Feature] < Threshold go left.
	Threshold float64
	// Weight is the leaf output value (only meaningful for leaves).
	Weight float64
	// Gain is the split's objective improvement (internal nodes).
	Gain        float64
	Left, Right *Node
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Predict routes x to a leaf and returns its weight.
func (n *Node) Predict(x []float64) float64 { return n.LeafFor(x).Weight }

// LeafFor routes x to its leaf node (useful for per-leaf re-estimation).
func (n *Node) LeafFor(x []float64) *Node {
	for !n.IsLeaf() {
		if x[n.Feature] < n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// NumLeaves counts leaves.
func (n *Node) NumLeaves() int {
	if n.IsLeaf() {
		return 1
	}
	return n.Left.NumLeaves() + n.Right.NumLeaves()
}

// Depth returns the height of the tree (a lone leaf has depth 0).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// AccumImportances adds each split's gain to imp[feature]; imp must have one
// entry per feature column.
func (n *Node) AccumImportances(imp []float64) {
	if n.IsLeaf() {
		return
	}
	imp[n.Feature] += n.Gain
	n.Left.AccumImportances(imp)
	n.Right.AccumImportances(imp)
}

// Presorted is a design matrix with every column sorted once: XGBoost's
// column block (Chen & Guestrin §4.1). Column f lists every row ordered by
// (X[i][f], i), each row index stored beside its value, so split search
// reads values from the column and never from X. It is built once per
// booster and shared by all of its trees. It also carries the work buffers
// Build reuses from tree to tree, so Build calls on one Presorted must not
// run concurrently.
type Presorted struct {
	cols [][]entry
	// Build's work buffers: the tree's candidate columns filtered to its
	// rows, side by side (work); the node rows in the tree's row order
	// (rows); the partition's spills; and per-row occurrence counts (mult)
	// and split sides (left), indexed by row.
	work, spill    []entry
	rows, rowSpill []int
	mult           []int
	left           []bool
}

// entry is one row of a sorted column: its value and its row index.
type entry struct {
	v   float64
	row int
}

// NewPresorted sorts every column of X (row-major, every row the same
// width). X must hold no NaN: a NaN has no place in a column's order.
func NewPresorted(X [][]float64) (*Presorted, error) {
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, fmt.Errorf("tree: empty design matrix")
	}
	n, p := len(X), len(X[0])
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("tree: row %d has %d features, want %d", i, len(row), p)
		}
	}
	ps := &Presorted{cols: make([][]entry, p), mult: make([]int, n), left: make([]bool, n)}
	flat := make([]entry, n*p)
	for f := range ps.cols {
		col := flat[f*n : (f+1)*n]
		for i, row := range X {
			col[i] = entry{v: row[f], row: i}
		}
		slices.SortFunc(col, func(a, b entry) int {
			if c := cmp.Compare(a.v, b.v); c != 0 {
				return c
			}
			return a.row - b.row
		})
		ps.cols[f] = col
	}
	return ps, nil
}

// Build grows a tree by exact greedy split search on rows (indices into
// the presorted matrix, in any order; a row listed twice counts twice)
// using gradients g and hessians h. features lists the candidate split
// columns (column sampling is the caller's concern). Each candidate column
// is filtered to rows once per tree; a node scans its segment of every
// candidate column in sorted order, ties by row index, and a split stably
// partitions those segments, so no node sorts.
func Build(cfg Config, ps *Presorted, g, h []float64, rows, features []int) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ps == nil {
		return nil, fmt.Errorf("tree: nil presorted matrix")
	}
	n := len(ps.mult) // one count per design row
	if len(g) != n || len(h) != n {
		return nil, fmt.Errorf("tree: %d rows but %d gradients / %d hessians", n, len(g), len(h))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("tree: no training rows")
	}
	for _, i := range rows {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("tree: row %d outside [0,%d)", i, n)
		}
	}
	for _, f := range features {
		if f < 0 || f >= len(ps.cols) {
			return nil, fmt.Errorf("tree: feature %d outside [0,%d)", f, len(ps.cols))
		}
	}
	ps.load(rows, features)
	b := &builder{cfg: cfg, ps: ps, g: g, h: h, features: features, m: len(rows)}
	return b.grow(0, len(rows), 0), nil
}

// load fills the work buffers for one tree: the rows in the given order,
// and each candidate column filtered to those rows in its sorted order.
func (ps *Presorted) load(rows, features []int) {
	m := len(rows)
	ps.rows = append(ps.rows[:0], rows...)
	for _, i := range rows {
		ps.mult[i]++
	}
	ps.work = slices.Grow(ps.work[:0], len(features)*m)[:len(features)*m]
	for k, f := range features {
		dst := ps.work[k*m : k*m]
		for _, e := range ps.cols[f] {
			for c := ps.mult[e.row]; c > 0; c-- {
				dst = append(dst, e)
			}
		}
	}
	for _, i := range rows {
		ps.mult[i] = 0
	}
	ps.spill = slices.Grow(ps.spill[:0], m)
	ps.rowSpill = slices.Grow(ps.rowSpill[:0], m)
}

// builder grows one tree. A node is a range [lo, hi) of the tree's rows:
// ps.rows[lo:hi] lists them in the tree's row order, and the same range of
// each candidate column lists them in that column's sorted order.
type builder struct {
	cfg      Config
	ps       *Presorted
	g, h     []float64
	features []int
	m        int // rows in the tree: the stride of the columns in ps.work
}

// column returns candidate column k's segment for the node [lo, hi).
func (b *builder) column(k, lo, hi int) []entry {
	return b.ps.work[k*b.m+lo : k*b.m+hi]
}

// leaf computes the closed-form optimal weight -G/(H+λ).
func (b *builder) leaf(G, H float64) *Node {
	return &Node{Feature: -1, Weight: -G / (H + b.cfg.Lambda)}
}

// split is a candidate split: candidate column k, rows with value <
// threshold going left.
type split struct {
	k         int
	threshold float64
	gain      float64
}

func (b *builder) grow(lo, hi, depth int) *Node {
	var G, H float64
	for _, i := range b.ps.rows[lo:hi] {
		G += b.g[i]
		H += b.h[i]
	}
	if depth >= b.cfg.MaxDepth || hi-lo < b.cfg.MinSamplesSplit {
		return b.leaf(G, H)
	}
	best, ok := b.bestSplit(lo, hi, G, H)
	if !ok {
		return b.leaf(G, H)
	}
	// Children at the depth limit are leaves: they read only their rows.
	mid, ok := b.partition(lo, hi, best, depth+1 < b.cfg.MaxDepth)
	if !ok {
		return b.leaf(G, H)
	}
	n := &Node{
		Feature:   b.features[best.k],
		Threshold: best.threshold,
		Gain:      best.gain,
	}
	n.Left = b.grow(lo, mid, depth+1)
	n.Right = b.grow(mid, hi, depth+1)
	return n
}

// bestSplit performs exact greedy search over every candidate feature and
// threshold of the node [lo, hi), maximizing the regularized gain
//
//	½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ.
//
// The first of equal gains wins, in candidate then sorted order.
func (b *builder) bestSplit(lo, hi int, G, H float64) (best split, ok bool) {
	g, h := b.g, b.h
	lam, minChild, gamma := b.cfg.Lambda, b.cfg.MinChildWeight, b.cfg.Gamma
	parentScore := G * G / (H + lam)
	for k := range b.features {
		col := b.column(k, lo, hi)
		if col[0].v == col[len(col)-1].v { //lint:ignore floateq a sorted segment whose ends are equal is constant and admits no split
			continue
		}
		var GL, HL float64
		for j := 0; j < len(col)-1; j++ {
			i := col[j].row
			GL += g[i]
			HL += h[i]
			v, next := col[j].v, col[j+1].v
			if v == next { //lint:ignore floateq duplicate sorted feature values admit no split point between them
				continue // can't split between equal values
			}
			GR, HR := G-GL, H-HL
			if HL < minChild || HR < minChild {
				continue
			}
			gain := 0.5*(GL*GL/(HL+lam)+GR*GR/(HR+lam)-parentScore) - gamma
			if gain <= 0 {
				continue
			}
			if !ok || gain > best.gain {
				mid := v + (next-v)/2
				//lint:ignore floateq adjacent floats: the midpoint rounds back onto v exactly
				if mid == v { // adjacent floats: fall back to next
					mid = next
				}
				best, ok = split{k: k, threshold: mid, gain: gain}, true
			}
		}
	}
	return best, ok
}

// partition applies split s to the node [lo, hi): it stably partitions
// the node's rows and, when cols is set, its segment of every candidate
// column, left rows first, and returns where the right child starts. It
// reports false, with the node left as it was, when one side would be
// empty.
func (b *builder) partition(lo, hi int, s split, cols bool) (int, bool) {
	left := b.ps.left
	for _, e := range b.column(s.k, lo, hi) {
		left[e.row] = e.v < s.threshold
	}
	rows, nl := b.ps.rows[lo:hi], 0
	spill := b.ps.rowSpill[:0]
	for _, i := range rows {
		if left[i] {
			rows[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(rows[nl:], spill)
	if nl == 0 || nl == len(rows) {
		return 0, false
	}
	if !cols {
		return lo + nl, true
	}
	for k := range b.features {
		col, w := b.column(k, lo, hi), 0
		spill := b.ps.spill[:0]
		for _, e := range col {
			if left[e.row] {
				col[w] = e
				w++
			} else {
				spill = append(spill, e)
			}
		}
		copy(col[w:], spill)
	}
	return lo + nl, true
}
