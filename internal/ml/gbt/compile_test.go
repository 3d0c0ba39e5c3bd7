package gbt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"domd/internal/ml"
	"domd/internal/ml/loss"
	"domd/internal/ml/tree"
)

// pointerPredict is the oracle the compiled ensemble is held to: the
// pointer-tree walk Predict ran before trees were compiled.
func pointerPredict(m *Model, x []float64) float64 {
	out := m.base
	for _, t := range m.trees {
		out += m.eta * t.Predict(x)
	}
	return out
}

// synthWide is a nonlinear target over p features, every one of them
// informative enough to be split on.
func synthWide(rng *rand.Rand, n, p int) *ml.Dataset {
	d := &ml.Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := range d.X {
		row := make([]float64, p)
		y := 0.0
		for j := range row {
			row[j] = rng.Float64()
			y += math.Sin(row[j]*float64(3+j%7)) * float64(1+j%5)
		}
		d.X[i] = row
		d.Y[i] = y + 20*row[0]*row[p-1] + rng.NormFloat64()
	}
	return d
}

// probeInputs returns the rows of d plus copies with entries replaced by
// NaN, ±Inf and exact split thresholds — the inputs where a differing
// comparison would show.
func probeInputs(rng *rand.Rand, m *Model, d *ml.Dataset) [][]float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	var thresholds []float64
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if n.IsLeaf() {
			return
		}
		thresholds = append(thresholds, n.Threshold)
		walk(n.Left)
		walk(n.Right)
	}
	for _, t := range m.trees {
		walk(t)
	}
	out := append([][]float64(nil), d.X...)
	for _, row := range d.X {
		x := append([]float64(nil), row...)
		for j := range x {
			switch r := rng.Intn(4); {
			case r == 0:
				x[j] = specials[rng.Intn(len(specials))]
			case r == 1 && len(thresholds) > 0:
				x[j] = thresholds[rng.Intn(len(thresholds))]
			}
		}
		out = append(out, x)
	}
	return out
}

func assertMatchesPointer(t *testing.T, name string, m *Model, xs [][]float64) {
	t.Helper()
	for i, x := range xs {
		got, want := m.Predict(x), pointerPredict(m, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: input %d: compiled %v (%#x), pointer trees %v (%#x)",
				name, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestCompiledEnsembleMatchesPointerTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := synthWide(rng, 300, 12)
	val := synthWide(rng, 100, 12)

	check := func(name string, m *Model) {
		t.Helper()
		assertMatchesPointer(t, name, m, probeInputs(rng, m, val))
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Model
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		assertMatchesPointer(t, name+" reloaded", &back, probeInputs(rng, &back, val))
	}

	deepest := 0
	for depth := 0; depth <= 8; depth++ {
		p := DefaultParams()
		p.NumRounds = 15
		p.MaxDepth = depth
		p.Subsample = 0.8
		p.ColsampleByTree = 0.7
		m, err := Fit(p, loss.Squared{}, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range m.trees {
			deepest = max(deepest, tr.Depth())
		}
		check(fmt.Sprintf("depth %d", depth), m)
	}
	if deepest < 8 {
		t.Fatalf("deepest trained tree has depth %d, want the depth-8 layout covered", deepest)
	}

	// The robust losses refit leaves after growth (TreeBoost).
	p := DefaultParams()
	p.NumRounds = 60
	p.LearningRate = 0.8
	p.MaxDepth = 6
	robust, err := Fit(p, loss.PseudoHuber{Delta: 18}, d)
	if err != nil {
		t.Fatal(err)
	}
	check("pseudo-huber", robust)

	// Hand-built shapes training rarely grows: single leaves, and trees
	// whose leaves sit at every depth on one side (padded most).
	leaf := func(w float64) *tree.Node { return &tree.Node{Feature: -1, Weight: w} }
	split := func(f int, thr float64, l, r *tree.Node) *tree.Node {
		return &tree.Node{Feature: f, Threshold: thr, Left: l, Right: r}
	}
	lopsided := func(leftDeep bool, depth int) *tree.Node {
		n := leaf(float64(depth) + 0.25)
		for k := depth - 1; k >= 0; k-- {
			side := leaf(float64(k) - 0.5)
			if leftDeep {
				n = split(k%12, 0.5+0.01*float64(k), n, side)
			} else {
				n = split((k+5)%12, 0.5-0.01*float64(k), side, n)
			}
		}
		return n
	}
	hand := &Model{base: 1.5, eta: 0.3, nFeature: 12, trees: []*tree.Node{
		leaf(2.5),
		lopsided(true, 8),
		leaf(-1.25),
		lopsided(false, 7),
		split(3, 0.4, leaf(1), lopsided(true, 3)),
		split(0, math.MaxFloat64, leaf(4), leaf(-4)),
	}}
	hand.compile()
	check("hand-built", hand)
	single := &Model{base: -3, eta: 0.1, nFeature: 1, trees: []*tree.Node{leaf(1), leaf(2)}}
	single.compile()
	check("single leaves", single)
	empty := &Model{base: 4.5, eta: 0.1, nFeature: 1}
	empty.compile()
	check("no trees", empty)
}

func TestUnmarshalRejectsTooDeep(t *testing.T) {
	n := &tree.Node{Feature: -1, Weight: 1}
	for k := 0; k <= MaxTreeDepth; k++ {
		n = &tree.Node{Feature: 0, Threshold: float64(k), Left: n, Right: &tree.Node{Feature: -1}}
	}
	raw, err := json.Marshal(modelJSON{Base: 0, Eta: 0.1, NumFeatures: 1, Trees: []*tree.Node{n}})
	if err != nil {
		t.Fatal(err)
	}
	var m Model
	if err := json.Unmarshal(raw, &m); err == nil {
		t.Fatalf("a depth-%d tree loaded", MaxTreeDepth+1)
	}
	p := DefaultParams()
	p.MaxDepth = MaxTreeDepth + 1
	if err := p.Validate(); err == nil {
		t.Fatalf("max depth %d validated", p.MaxDepth)
	}
}

// FuzzGBTModel holds the model-artifact trust boundary: any bytes
// UnmarshalJSON accepts compile without panicking, and Predict on any
// input vector equals the pointer-tree oracle bit for bit.
func FuzzGBTModel(f *testing.F) {
	f.Add([]byte(`{"base":3,"eta":0.1,"num_features":1,"trees":[{"Feature":-1,"Weight":2}]}`), []byte{})
	f.Add([]byte(`{"base":0,"eta":0.5,"num_features":3,"trees":[{"Feature":2,"Threshold":0.5,"Left":{"Feature":-1,"Weight":1},"Right":{"Feature":0,"Threshold":-1,"Left":{"Feature":-1,"Weight":2},"Right":{"Feature":-1,"Weight":3}}}]}`),
		[]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, model, vec []byte) {
		var m Model
		if err := json.Unmarshal(model, &m); err != nil {
			return
		}
		width := 1
		var widest func(n *tree.Node)
		widest = func(n *tree.Node) {
			if !n.IsLeaf() {
				width = max(width, n.Feature+1)
				widest(n.Left)
				widest(n.Right)
			}
		}
		for _, tr := range m.trees {
			widest(tr)
		}
		if width > 1<<12 {
			t.Skip("input vector too wide to build")
		}
		// The vector's entries are the fuzzer's float64 bit patterns,
		// cycled; an empty vec probes all zeros.
		x := make([]float64, width)
		for j := range x {
			if len(vec) >= 8 {
				off := (8 * j) % (len(vec) - len(vec)%8)
				x[j] = math.Float64frombits(binary.LittleEndian.Uint64(vec[off:]))
			}
		}
		got, want := m.Predict(x), pointerPredict(&m, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("compiled %v, pointer trees %v on %v", got, want, x)
		}
	})
}

// compiledBytes is the size of m's compiled tables: what Predict reads.
func compiledBytes(m *Model) int {
	e := &m.flat
	return len(e.depth) + 4*len(e.feat) + 8*len(e.thr) + 8*len(e.leaf)
}

// pointerBytes is the heap the pointer trees of m hold: one tree.Node per
// node (what Predict walked before compilation).
func pointerBytes(m *Model) int {
	nodes := 0
	var count func(n *tree.Node)
	count = func(n *tree.Node) {
		nodes++
		if !n.IsLeaf() {
			count(n.Left)
			count(n.Right)
		}
	}
	for _, t := range m.trees {
		count(t)
	}
	return nodes * int(unsafe.Sizeof(tree.Node{}))
}

// BenchmarkGBTPredict times one prediction of a trained booster over 60
// features — the per-grid-point model cost of a served trajectory — at
// DefaultParams (100 rounds, depth 4) and at AutoHPT's deepest trees.
// compiled-B and pointer-B report the model's compiled table and its
// pointer trees' node bytes.
func BenchmarkGBTPredict(b *testing.B) {
	for _, depth := range []int{4, 8} {
		rng := rand.New(rand.NewSource(3))
		p := DefaultParams()
		p.MaxDepth = depth
		m, err := Fit(p, loss.Squared{}, synthWide(rng, 600, 60))
		if err != nil {
			b.Fatal(err)
		}
		xs := synthWide(rng, 256, 60).X
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink += m.Predict(xs[i%len(xs)])
			}
			b.StopTimer()
			if math.IsNaN(sink) {
				b.Fatal("NaN prediction")
			}
			b.ReportMetric(float64(compiledBytes(m)), "compiled-B")
			b.ReportMetric(float64(pointerBytes(m)), "pointer-B")
		})
	}
}
