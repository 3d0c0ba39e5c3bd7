package statusq

import (
	"math"

	"domd/internal/domain"
	"domd/internal/swlin"
)

// CellStats are one-pass sufficient statistics for every aggregate the
// feature transformation 𝒯 emits, collected per (type × subsystem) cell.
// They merge associatively, so any union of cells (all types, whole-ship,
// …) is computable without revisiting RCCs — the batching that makes
// generating ~1500 features per logical timestamp affordable.
type CellStats struct {
	Count       int
	SumAmount   float64
	SumSqAmount float64
	MaxAmount   float64
	MinAmount   float64
	SumDuration float64
	MaxDuration float64
}

// add folds one RCC observation into the cell. Every code path that builds
// cells (scratch grid fill, incremental sweep, map-based CellStatsAt) must
// go through this method: identical per-cell operation sequences are what
// make the sweep and scratch paths bitwise-reproducible against each other.
func (c *CellStats) add(amount, dur float64) {
	if c.Count == 0 {
		c.MinAmount, c.MaxAmount, c.MaxDuration = amount, amount, dur
	} else {
		if amount < c.MinAmount {
			c.MinAmount = amount
		}
		if amount > c.MaxAmount {
			c.MaxAmount = amount
		}
		if dur > c.MaxDuration {
			c.MaxDuration = dur
		}
	}
	c.Count++
	c.SumAmount += amount
	c.SumSqAmount += amount * amount
	c.SumDuration += dur
}

// Merge combines two cells.
func (c CellStats) Merge(o CellStats) CellStats {
	c.mergeFrom(&o)
	return c
}

// mergeFrom folds o into c in place — the one copy of the merge
// arithmetic, shared by Merge and the margin fold. An empty c takes o
// whole; an empty o leaves c as it is. The builtin max and min compile
// inline; unlike math.Max and math.Min they answer NaN for a NaN beside
// an infinity too.
func (c *CellStats) mergeFrom(o *CellStats) {
	if c.Count == 0 {
		*c = *o
		return
	}
	if o.Count == 0 {
		return
	}
	c.Count += o.Count
	c.SumAmount += o.SumAmount
	c.SumSqAmount += o.SumSqAmount
	c.MaxAmount = max(c.MaxAmount, o.MaxAmount)
	c.MinAmount = min(c.MinAmount, o.MinAmount)
	c.SumDuration += o.SumDuration
	c.MaxDuration = max(c.MaxDuration, o.MaxDuration)
}

// Aggregate evaluates one aggregate from the cell. createdTotal (the
// |Created(t*)| denominator, see Indexed.CreatedCount) and ts feed Pct and
// Rate respectively. Empty cells evaluate to 0.
func (c CellStats) Aggregate(agg Aggregate, createdTotal int, ts float64) float64 {
	if c.Count == 0 {
		return 0
	}
	n := float64(c.Count)
	switch agg {
	case Count:
		return n
	case SumAmount:
		return c.SumAmount
	case AvgAmount:
		return c.SumAmount / n
	case MaxAmount:
		return c.MaxAmount
	case MinAmount:
		return c.MinAmount
	case StdAmount:
		mean := c.SumAmount / n
		v := c.SumSqAmount/n - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v)
	case SumDuration:
		return c.SumDuration
	case AvgDuration:
		return c.SumDuration / n
	case MaxDuration:
		return c.MaxDuration
	case Pct:
		if createdTotal == 0 {
			return 0
		}
		return n / float64(createdTotal)
	case Rate:
		if ts <= 0 {
			return n
		}
		return n / ts
	default:
		return 0
	}
}

// AggregateAll evaluates every aggregate kind into dst[0:NumAggregates] in
// Aggregate declaration order, sharing the intermediate terms (n, mean) the
// per-kind Aggregate recomputes. Each dst entry is bitwise-identical to the
// corresponding single-aggregate call.
func (c *CellStats) AggregateAll(dst []float64, createdTotal int, ts float64) {
	_ = dst[NumAggregates-1]
	if c.Count == 0 {
		for i := range dst[:NumAggregates] {
			dst[i] = 0
		}
		return
	}
	n := float64(c.Count)
	mean := c.SumAmount / n
	dst[Count] = n
	dst[SumAmount] = c.SumAmount
	dst[AvgAmount] = mean
	dst[MaxAmount] = c.MaxAmount
	dst[MinAmount] = c.MinAmount
	v := c.SumSqAmount/n - mean*mean
	if v < 0 {
		v = 0
	}
	dst[StdAmount] = math.Sqrt(v)
	dst[SumDuration] = c.SumDuration
	dst[AvgDuration] = c.SumDuration / n
	dst[MaxDuration] = c.MaxDuration
	if createdTotal == 0 {
		dst[Pct] = 0
	} else {
		dst[Pct] = n / float64(createdTotal)
	}
	if ts <= 0 {
		dst[Rate] = n
	} else {
		dst[Rate] = n / ts
	}
}

// GroupKey identifies one (RCC type × SWLIN subsystem) cell of the
// group-by lattice.
type GroupKey struct {
	Type      domain.RCCType
	Subsystem int // SWLIN first digit
}

// NumSubsystems is the number of concrete SWLIN subsystem digits (0–9).
const NumSubsystems = 10

// Dense-grid margin indices: the last row/column of a CellGrid holds the
// ALL-types / ALL-subsystems unions.
const (
	TypeAll      = domain.NumRCCTypes
	SubsystemAll = NumSubsystems
)

// CellGrid is the dense replacement for map[GroupKey]CellStats on the
// feature hot path: one CellStats per (type × subsystem) cell plus
// prefix-merged margins, so every one of the 4 × 11 group-by selections the
// feature registry enumerates resolves to a single array access — no map
// lookups, no per-call allocations.
//
// Layout: [t][s] for t in 0..NumRCCTypes-1, s in 0..9 are the concrete
// cells; [t][SubsystemAll] is the union over subsystems of type t,
// [TypeAll][s] the union over types of subsystem s, and
// [TypeAll][SubsystemAll] the whole-ship cell.
type CellGrid [domain.NumRCCTypes + 1][NumSubsystems + 1]CellStats

// At returns the cell for the given selection; typ == -1 selects the
// all-types margin and sub == -1 the all-subsystems margin.
func (g *CellGrid) At(typ, sub int) *CellStats {
	if typ < 0 {
		typ = TypeAll
	}
	if sub < 0 {
		sub = SubsystemAll
	}
	return &g[typ][sub]
}

// finalizeMargins recomputes the ALL margins from the concrete cells in a
// fixed canonical order (types ascending, then subsystems ascending),
// folding each cell into its margin in place. Both the scratch and sweep
// fill paths call this, so equal concrete cells yield bitwise-equal
// margins.
func (g *CellGrid) finalizeMargins() {
	for t := 0; t < domain.NumRCCTypes; t++ {
		m := &g[t][SubsystemAll]
		*m = CellStats{}
		for s := 0; s < NumSubsystems; s++ {
			m.mergeFrom(&g[t][s])
		}
	}
	for s := 0; s < NumSubsystems; s++ {
		m := &g[TypeAll][s]
		*m = CellStats{}
		for t := 0; t < domain.NumRCCTypes; t++ {
			m.mergeFrom(&g[t][s])
		}
	}
	m := &g[TypeAll][SubsystemAll]
	*m = CellStats{}
	for s := 0; s < NumSubsystems; s++ {
		m.mergeFrom(&g[TypeAll][s])
	}
}

// clearConcrete zeroes the concrete (non-margin) cells.
func (g *CellGrid) clearConcrete() {
	for t := 0; t < domain.NumRCCTypes; t++ {
		for s := 0; s < NumSubsystems; s++ {
			g[t][s] = CellStats{}
		}
	}
}

// GridSet bundles one CellGrid per status class — the complete Status Query
// state a feature vector evaluation needs at one logical timestamp.
type GridSet [domain.NumRCCStatuses]CellGrid

// Grid returns the grid of one status class.
func (gs *GridSet) Grid(st domain.RCCStatus) *CellGrid { return &gs[st] }

// CreatedCount is |Created(t*)|, the Pct denominator, read off the
// whole-ship margin of the Created grid.
func (gs *GridSet) CreatedCount() int {
	return gs[domain.Created][TypeAll][SubsystemAll].Count
}

// Reset zeroes every cell.
func (gs *GridSet) Reset() { *gs = GridSet{} }

// cellOf locates the concrete grid cell of an RCC.
func cellOf(g *CellGrid, r *domain.RCC) *CellStats {
	return &g[r.Type][swlin.Code(r.SWLIN).Subsystem()]
}
