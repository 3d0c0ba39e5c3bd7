package tree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fitCART grows a classical regression tree on (X, y): g = -y, h = 1,
// lambda = 0 makes each leaf the mean of its targets.
func fitCART(t *testing.T, cfg Config, X [][]float64, y []float64) *Node {
	t.Helper()
	g := make([]float64, len(y))
	h := make([]float64, len(y))
	rows := make([]int, len(y))
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
		rows[i] = i
	}
	features := make([]int, len(X[0]))
	for j := range features {
		features[j] = j
	}
	n, err := Build(cfg, presort(t, X), g, h, rows, features)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func presort(tb testing.TB, X [][]float64) *Presorted {
	tb.Helper()
	ps, err := NewPresorted(X)
	if err != nil {
		tb.Fatal(err)
	}
	return ps
}

func TestSingleLeafIsMean(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{10, 20, 30}
	cfg := DefaultConfig()
	cfg.MaxDepth = 0
	cfg.Lambda = 0
	n := fitCART(t, cfg, X, y)
	if !n.IsLeaf() {
		t.Fatal("depth-0 tree must be a leaf")
	}
	if math.Abs(n.Weight-20) > 1e-12 {
		t.Errorf("leaf weight = %f, want mean 20", n.Weight)
	}
}

func TestPerfectStepFunction(t *testing.T) {
	// y = 0 for x<5, y = 100 for x>=5: one split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		X = append(X, []float64{float64(i)})
		if i < 5 {
			y = append(y, 0)
		} else {
			y = append(y, 100)
		}
	}
	cfg := DefaultConfig()
	cfg.Lambda = 0
	cfg.MinChildWeight = 0
	n := fitCART(t, cfg, X, y)
	for i, row := range X {
		if got := n.Predict(row); math.Abs(got-y[i]) > 1e-9 {
			t.Errorf("Predict(%v) = %f, want %f", row, got, y[i])
		}
	}
	if n.IsLeaf() {
		t.Error("tree should have split")
	}
	if n.Feature != 0 || n.Threshold <= 4 || n.Threshold > 5 {
		t.Errorf("split = feature %d @ %f, want feature 0 in (4,5]", n.Feature, n.Threshold)
	}
}

func TestPicksInformativeFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		informative := rng.Float64()
		noise := rng.Float64()
		X[i] = []float64{noise, informative}
		if informative > 0.5 {
			y[i] = 50
		}
	}
	cfg := DefaultConfig()
	cfg.MaxDepth = 1
	root := fitCART(t, cfg, X, y)
	if root.IsLeaf() || root.Feature != 1 {
		t.Errorf("root split on feature %d, want informative feature 1", root.Feature)
	}
	imp := make([]float64, 2)
	root.AccumImportances(imp)
	if imp[1] <= imp[0] {
		t.Errorf("importances %v: informative feature should dominate", imp)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = rng.NormFloat64() * 10
	}
	for _, depth := range []int{1, 2, 3, 4} {
		cfg := DefaultConfig()
		cfg.MaxDepth = depth
		cfg.Gamma = 0
		root := fitCART(t, cfg, X, y)
		if d := root.Depth(); d > depth {
			t.Errorf("Depth() = %d, want <= %d", d, depth)
		}
		if l := root.NumLeaves(); l > 1<<depth {
			t.Errorf("NumLeaves() = %d, want <= %d", l, 1<<depth)
		}
	}
}

func TestGammaPrunesWeakSplits(t *testing.T) {
	// Nearly-constant target: any split gain is tiny, so a large gamma
	// must leave a single leaf.
	rng := rand.New(rand.NewSource(3))
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = 5 + 0.001*rng.NormFloat64()
	}
	cfg := DefaultConfig()
	cfg.Gamma = 100
	root := fitCART(t, cfg, X, y)
	if !root.IsLeaf() {
		t.Error("large gamma should suppress all splits")
	}
}

func TestMinChildWeightBlocksTinyLeaves(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 0, 100}
	cfg := DefaultConfig()
	cfg.Lambda = 0
	cfg.MinChildWeight = 2 // unit hessians: each child needs >= 2 rows
	root := fitCART(t, cfg, X, y)
	// With 4 rows and min 2 per child, only the middle split is legal, and
	// neither two-row child can split again.
	if root.IsLeaf() || root.Feature != 0 || root.Threshold != 1.5 {
		t.Fatalf("root = %+v, want a split on feature 0 at 1.5", *root)
	}
	if !root.Left.IsLeaf() || !root.Right.IsLeaf() {
		t.Fatalf("children %+v, %+v: want two leaves", *root.Left, *root.Right)
	}
	if root.Left.Weight != 0 || root.Right.Weight != 50 {
		t.Errorf("leaf weights %v, %v, want 0 and 50", root.Left.Weight, root.Right.Weight)
	}
}

func TestLambdaShrinksLeaves(t *testing.T) {
	X := [][]float64{{1}, {2}}
	y := []float64{10, 10}
	cfg := DefaultConfig()
	cfg.MaxDepth = 0
	cfg.Lambda = 0
	unshrunk := fitCART(t, cfg, X, y)
	cfg.Lambda = 2
	shrunk := fitCART(t, cfg, X, y)
	if !(math.Abs(shrunk.Weight) < math.Abs(unshrunk.Weight)) {
		t.Errorf("lambda must shrink leaf: %f vs %f", shrunk.Weight, unshrunk.Weight)
	}
	// -G/(H+λ) = 20/(2+2) = 5.
	if math.Abs(shrunk.Weight-5) > 1e-12 {
		t.Errorf("shrunk weight = %f, want 5", shrunk.Weight)
	}
}

func TestBuildErrors(t *testing.T) {
	ps := presort(t, [][]float64{{1}})
	if _, err := Build(Config{MaxDepth: -1}, ps, []float64{1}, []float64{1}, []int{0}, []int{0}); err == nil {
		t.Error("negative depth: want error")
	}
	if _, err := Build(DefaultConfig(), ps, []float64{1, 2}, []float64{1}, []int{0}, []int{0}); err == nil {
		t.Error("gradient length mismatch: want error")
	}
	if _, err := Build(DefaultConfig(), ps, []float64{1}, []float64{1}, nil, []int{0}); err == nil {
		t.Error("no rows: want error")
	}
	if _, err := Build(DefaultConfig(), ps, []float64{1}, []float64{1}, []int{1}, []int{0}); err == nil {
		t.Error("row out of range: want error")
	}
	if _, err := Build(DefaultConfig(), ps, []float64{1}, []float64{1}, []int{0}, []int{1}); err == nil {
		t.Error("feature out of range: want error")
	}
	if _, err := Build(DefaultConfig(), nil, []float64{1}, []float64{1}, []int{0}, []int{0}); err == nil {
		t.Error("nil presorted matrix: want error")
	}
	if _, err := NewPresorted(nil); err == nil {
		t.Error("empty design: want error")
	}
	if _, err := NewPresorted([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged design: want error")
	}
	for _, bad := range []Config{{Lambda: -1}, {Gamma: -1}, {MinChildWeight: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", bad)
		}
	}
}

func TestConstantFeatureNeverSplits(t *testing.T) {
	X := [][]float64{{7}, {7}, {7}, {7}}
	y := []float64{1, 2, 3, 4}
	cfg := DefaultConfig()
	cfg.MinChildWeight = 0
	root := fitCART(t, cfg, X, y)
	if !root.IsLeaf() {
		t.Error("constant feature cannot be split")
	}
}

// TestQuickPredictionsWithinTargetRange: with lambda=0 every leaf is a mean
// of training targets, so predictions must lie within [min(y), max(y)].
func TestQuickPredictionsWithinTargetRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			y[i] = rng.NormFloat64() * 100
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		g := make([]float64, n)
		h := make([]float64, n)
		rows := make([]int, n)
		for i := range y {
			g[i] = -y[i]
			h[i] = 1
			rows[i] = i
		}
		cfg := DefaultConfig()
		cfg.Lambda = 0
		cfg.MinChildWeight = 0
		ps, err := NewPresorted(X)
		if err != nil {
			return false
		}
		root, err := Build(cfg, ps, g, h, rows, []int{0, 1})
		if err != nil {
			return false
		}
		for _, row := range X {
			p := root.Predict(row)
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeeperTreeFitsBetter: training error is non-increasing in depth.
func TestDeeperTreeFitsBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		y[i] = math.Sin(a*6)*50 + b*b*30
	}
	var prev float64 = math.Inf(1)
	for _, depth := range []int{1, 3, 6} {
		cfg := DefaultConfig()
		cfg.Lambda = 0
		cfg.MinChildWeight = 0
		root := fitCART(t, cfg, X, y)
		cfg.MaxDepth = depth
		root = fitCART(t, cfg, X, y)
		mse := 0.0
		for i, row := range X {
			d := y[i] - root.Predict(row)
			mse += d * d
		}
		mse /= float64(n)
		if mse > prev+1e-9 {
			t.Errorf("depth %d: training MSE %f worse than shallower %f", depth, mse, prev)
		}
		prev = mse
	}
}

// oracleBuild is the exact builder Build replaced, kept as the reference
// Build is tested against: at every node it copies the node's rows and
// sorts them per candidate feature by (value, row index), the order Build's
// presorted columns hold. Rows and features are assumed in range.
func oracleBuild(cfg Config, X [][]float64, g, h []float64, rows, features []int) *Node {
	o := &oracle{cfg: cfg, X: X, g: g, h: h, features: features}
	return o.grow(append([]int(nil), rows...), 0)
}

type oracle struct {
	cfg      Config
	X        [][]float64
	g, h     []float64
	features []int
}

func (o *oracle) grow(rows []int, depth int) *Node {
	var G, H float64
	for _, i := range rows {
		G += o.g[i]
		H += o.h[i]
	}
	leaf := &Node{Feature: -1, Weight: -G / (H + o.cfg.Lambda)}
	if depth >= o.cfg.MaxDepth || len(rows) < o.cfg.MinSamplesSplit {
		return leaf
	}
	lam := o.cfg.Lambda
	parentScore := G * G / (H + lam)
	found := false
	var feature int
	var threshold, gain float64
	order := make([]int, len(rows))
	for _, f := range o.features {
		copy(order, rows)
		slices.SortFunc(order, func(a, c int) int {
			if d := cmp.Compare(o.X[a][f], o.X[c][f]); d != 0 {
				return d
			}
			return a - c
		})
		var GL, HL float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			GL += o.g[i]
			HL += o.h[i]
			v, next := o.X[i][f], o.X[order[k+1]][f]
			if v == next { //lint:ignore floateq duplicate sorted feature values admit no split point between them
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < o.cfg.MinChildWeight || HR < o.cfg.MinChildWeight {
				continue
			}
			cand := 0.5*(GL*GL/(HL+lam)+GR*GR/(HR+lam)-parentScore) - o.cfg.Gamma
			if cand <= 0 {
				continue
			}
			if !found || cand > gain {
				mid := v + (next-v)/2
				//lint:ignore floateq adjacent floats: the midpoint rounds back onto v exactly
				if mid == v {
					mid = next
				}
				found, feature, threshold, gain = true, f, mid, cand
			}
		}
	}
	if !found {
		return leaf
	}
	var left, right []int
	for _, i := range rows {
		if o.X[i][feature] < threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return leaf
	}
	return &Node{
		Feature: feature, Threshold: threshold, Gain: gain,
		Left:  o.grow(left, depth+1),
		Right: o.grow(right, depth+1),
	}
}

// treeDiff describes the first node at which a and b differ, or returns ""
// when they are equal node for node: the same Feature, and the same
// Threshold, Weight and Gain bit for bit.
func treeDiff(a, b *Node, path string) string {
	switch {
	case a.Feature != b.Feature:
		return fmt.Sprintf("%s: feature %d vs %d", path, a.Feature, b.Feature)
	case math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold):
		return fmt.Sprintf("%s: threshold %v vs %v", path, a.Threshold, b.Threshold)
	case math.Float64bits(a.Weight) != math.Float64bits(b.Weight):
		return fmt.Sprintf("%s: weight %v vs %v", path, a.Weight, b.Weight)
	case math.Float64bits(a.Gain) != math.Float64bits(b.Gain):
		return fmt.Sprintf("%s: gain %v vs %v", path, a.Gain, b.Gain)
	case a.IsLeaf():
		return ""
	}
	if d := treeDiff(a.Left, b.Left, path+"L"); d != "" {
		return d
	}
	return treeDiff(a.Right, b.Right, path+"R")
}

// tieValues is the alphabet designs draw from: few values, so ties are the
// norm, including ±0 (equal, different bits) and two adjacent floats (the
// midpoint rounds onto the lower one).
var tieValues = []float64{0, 1, math.Copysign(0, -1), math.Nextafter(1, 2), -2.5, 7, 1e6}

// treeCase is one Build input: a design, gradients and hessians, and the
// rows, features and config of two successive trees on the same Presorted
// (as two boosting rounds are).
type treeCase struct {
	X        [][]float64
	g, h     []float64
	rounds   [2]struct{ rows, features []int }
	cfg      Config
	describe string
}

// genTreeCase decodes a case from next, which yields bytes (zero once its
// source runs dry). Rows and features are random subsets in random order,
// as Subsample and ColsampleByTree give, now and then with one index
// listed twice (Build counts such a row twice, as the oracle does).
func genTreeCase(next func() byte) treeCase {
	n := 1 + int(next()%40)
	p := 1 + int(next()%6)
	alpha := 1 + int(next())%len(tieValues)
	var c treeCase
	c.X = make([][]float64, n)
	c.g, c.h = make([]float64, n), make([]float64, n)
	for i := range c.X {
		c.X[i] = make([]float64, p)
		for f := range c.X[i] {
			c.X[i][f] = tieValues[int(next())%alpha]
		}
		c.g[i] = float64(int8(next())) / 4
		c.h[i] = float64(next()%8) / 4 // zero hessians too
	}
	subset := func(m int) []int {
		var s []int
		for i := 0; i < m; i++ {
			if next()%4 != 0 {
				s = append(s, i)
			}
		}
		if len(s) == 0 {
			s = append(s, int(next())%m)
		}
		if next()%8 == 0 {
			s = append(s, s[int(next())%len(s)])
		}
		for i := len(s) - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			s[i], s[j] = s[j], s[i]
		}
		return s
	}
	for r := range c.rounds {
		c.rounds[r].rows = subset(n)
		c.rounds[r].features = subset(p)
	}
	c.cfg = Config{
		MaxDepth:        1 + int(next()%5),
		MinChildWeight:  float64(next()%4) / 4,
		Lambda:          float64(next()%4) / 2,
		Gamma:           float64(next()%4) / 4,
		MinSamplesSplit: int(next() % 4),
	}
	c.describe = fmt.Sprintf("%d×%d alphabet %d %+v", n, p, alpha, c.cfg)
	return c
}

// checkAgainstOracle builds both rounds of c on one Presorted and fails
// unless each tree equals the oracle's node for node.
func checkAgainstOracle(t *testing.T, c treeCase) {
	t.Helper()
	ps := presort(t, c.X)
	for r, rd := range c.rounds {
		got, err := Build(c.cfg, ps, c.g, c.h, rd.rows, rd.features)
		if err != nil {
			t.Fatalf("%s round %d: %v", c.describe, r, err)
		}
		want := oracleBuild(c.cfg, c.X, c.g, c.h, rd.rows, rd.features)
		if d := treeDiff(got, want, "root"); d != "" {
			t.Fatalf("%s round %d (rows %v, features %v): presorted vs oracle at %s",
				c.describe, r, rd.rows, rd.features, d)
		}
	}
}

// byteSource yields data's bytes, then zeros.
func byteSource(data []byte) func() byte {
	return func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
}

// TestBuildMatchesOracle pins Build to the per-node-sorting oracle on
// random tie-heavy designs, row and feature subsets in random order and
// varied configs, two trees per Presorted, plus a design of the shape
// `domd serve` trains at startup.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 300; k++ {
		data := make([]byte, 64+rng.Intn(600))
		rng.Read(data)
		checkAgainstOracle(t, genTreeCase(byteSource(data)))
	}
	X, g, h := startupShape(rng)
	c := treeCase{X: X, g: g, h: h, cfg: DefaultConfig(), describe: "startup shape"}
	c.cfg.MaxDepth = 4
	for r := range c.rounds {
		c.rounds[r].rows = rng.Perm(len(X))[:len(X)*4/5]
		c.rounds[r].features = rng.Perm(len(X[0]))
	}
	checkAgainstOracle(t, c)
}

// FuzzTreeBuild holds Build equal to the oracle node for node on any
// decoded case (see genTreeCase).
func FuzzTreeBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{39, 5, 2, 0, 1, 1, 0, 200, 3, 9, 9, 9, 9, 4, 4, 4, 1, 2, 3})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 8; k++ {
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, genTreeCase(byteSource(data)))
	})
}

// startupShape draws a design of the shape `domd serve` trains each
// per-timestamp model on: ~130 rows × 68 columns, most cells 0 (an empty
// cell's aggregates all read 0) and the rest from a few small integers,
// with squared-loss gradients and unit hessians.
func startupShape(rng *rand.Rand) (X [][]float64, g, h []float64) {
	const n, p = 130, 68
	X = make([][]float64, n)
	g, h = make([]float64, n), make([]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for f := range X[i] {
			if rng.Intn(3) == 0 {
				X[i][f] = float64(1 + rng.Intn(12))
			}
		}
		g[i] = rng.NormFloat64() * 40
		h[i] = 1
	}
	return X, g, h
}

// BenchmarkTreeBuild times one depth-4 tree on the startup shape over a
// shared Presorted, as one boosting round grows it.
func BenchmarkTreeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, g, h := startupShape(rng)
	ps := presort(b, X)
	cfg := DefaultConfig()
	cfg.MaxDepth = 4
	rows, features := rng.Perm(len(X)), rng.Perm(len(X[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Build(cfg, ps, g, h, rows, features)
		if err != nil {
			b.Fatal(err)
		}
		treeSink = tr
	}
}

var treeSink *Node
