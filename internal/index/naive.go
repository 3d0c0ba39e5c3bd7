package index

import "slices"

// joinedRow is one row of the materialized avail⋈RCC join product the
// "Pandas merge" baseline of paper §4.1 stores: the interval triple plus
// every avail attribute column duplicated alongside it. The duplicated
// columns are what make the merge baseline slow to build (they must be
// copied per row), slow to scan (memory traffic), and roughly twice the
// footprint of the tree indexes (Table 6).
type joinedRow struct {
	iv Interval
	// availCols models the ~15 duplicated avail columns plus row overhead
	// (≈168 bytes per row on top of the 24-byte triple).
	availCols [21]float64
}

// NaiveIndex is the merge-join baseline of paper §4.1 ("Pandas merge"): it
// materializes the joined rows in a flat slice kept sorted by start date
// and answers every query with a scan.
type NaiveIndex struct {
	joined []joinedRow
}

// NewNaive returns an empty naive index.
func NewNaive() *NaiveIndex { return &NaiveIndex{} }

// materialize builds the wide join row, copying the duplicated avail
// attribute columns the way a dataframe merge does.
func materialize(iv Interval) joinedRow {
	r := joinedRow{iv: iv}
	for i := range r.availCols {
		// The values are synthetic; the copy cost is the point.
		r.availCols[i] = float64(iv.Start + int64(i))
	}
	return r
}

// BulkLoad implements TimeIndex: materialize every joined row, then sort
// them once.
func (x *NaiveIndex) BulkLoad(ivs []Interval) error {
	joined := make([]joinedRow, len(ivs))
	for i, iv := range ivs {
		if err := iv.Validate(); err != nil {
			return err
		}
		joined[i] = materialize(iv)
	}
	slices.SortFunc(joined, rowCmp)
	x.joined = joined
	return nil
}

// Insert implements TimeIndex: the row goes to its sorted position, which
// shifts every later row (linear, like the baseline it models).
func (x *NaiveIndex) Insert(iv Interval) error {
	if err := iv.Validate(); err != nil {
		return err
	}
	r := materialize(iv)
	i, _ := slices.BinarySearchFunc(x.joined, r, rowCmp)
	x.joined = slices.Insert(x.joined, i, r)
	return nil
}

// Delete implements TimeIndex (linear scan; the rest stay sorted).
func (x *NaiveIndex) Delete(iv Interval) bool {
	for i := range x.joined {
		if x.joined[i].iv == iv {
			x.joined = slices.Delete(x.joined, i, i+1)
			return true
		}
	}
	return false
}

// Len implements TimeIndex.
func (x *NaiveIndex) Len() int { return len(x.joined) }

func rowCmp(a, b joinedRow) int {
	if ivLess(a.iv, b.iv) {
		return -1
	}
	if ivLess(b.iv, a.iv) {
		return 1
	}
	return 0
}

// ActiveAt implements TimeIndex with a scan of the materialized join.
func (x *NaiveIndex) ActiveAt(t int64) []int {
	var ids []int
	for i := range x.joined {
		r := &x.joined[i]
		if r.iv.Start > t {
			break // sorted by start: nothing later can qualify
		}
		if r.iv.End > t {
			ids = append(ids, r.iv.ID)
		}
	}
	return ids
}

// SettledBy implements TimeIndex with a full scan (ends are unsorted).
func (x *NaiveIndex) SettledBy(t int64) []int {
	var ids []int
	for i := range x.joined {
		if x.joined[i].iv.End <= t {
			ids = append(ids, x.joined[i].iv.ID)
		}
	}
	return ids
}

// CreatedBy implements TimeIndex.
func (x *NaiveIndex) CreatedBy(t int64) []int {
	var ids []int
	for i := range x.joined {
		if x.joined[i].iv.Start > t {
			break
		}
		ids = append(ids, x.joined[i].iv.ID)
	}
	return ids
}

// CountActiveAt implements TimeIndex with a scan.
func (x *NaiveIndex) CountActiveAt(t int64) int {
	c := 0
	for i := range x.joined {
		if x.joined[i].iv.Start <= t && x.joined[i].iv.End > t {
			c++
		}
	}
	return c
}

// CountSettledBy implements TimeIndex with a scan.
func (x *NaiveIndex) CountSettledBy(t int64) int {
	c := 0
	for i := range x.joined {
		if x.joined[i].iv.End <= t {
			c++
		}
	}
	return c
}

// CreatedIn implements TimeIndex with a scan.
func (x *NaiveIndex) CreatedIn(lo, hi int64) []int {
	var ids []int
	for i := range x.joined {
		s := x.joined[i].iv.Start
		if s > lo && s <= hi {
			ids = append(ids, x.joined[i].iv.ID)
		}
	}
	return ids
}

// SettledIn implements TimeIndex with a scan.
func (x *NaiveIndex) SettledIn(lo, hi int64) []int {
	var ids []int
	for i := range x.joined {
		e := x.joined[i].iv.End
		if e > lo && e <= hi {
			ids = append(ids, x.joined[i].iv.ID)
		}
	}
	return ids
}

// MemoryBytes implements TimeIndex: the materialized join rows.
func (x *NaiveIndex) MemoryBytes() int {
	const joinedRowBytes = 24 + 21*8
	return cap(x.joined) * joinedRowBytes
}
