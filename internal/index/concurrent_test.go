package index

import (
	"sync"
	"testing"
)

// TestConcurrentReadsAfterInsert exercises the TimeIndex concurrency
// contract: after a batch of Inserts, every query method must be safe to
// call from many goroutines at once. The query methods only read (no
// design defers work to the read path), so run with -race this pins that
// no query writes index state.
func TestConcurrentReadsAfterInsert(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				iv := Interval{Start: int64(i % 37), End: int64(i%37 + 1 + i%11), ID: i}
				if err := idx.Insert(iv); err != nil {
					t.Fatal(err)
				}
			}
			want := idx.CountSettledBy(40) // sequential reference
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for i := 0; i < 50; i++ {
						tpt := int64((w + i) % 50)
						_ = idx.ActiveAt(tpt)
						_ = idx.SettledBy(tpt)
						_ = idx.CreatedBy(tpt)
						_ = idx.CountActiveAt(tpt)
						if got := idx.CountSettledBy(40); got != want {
							t.Errorf("CountSettledBy(40) = %d under concurrency, want %d", got, want)
							return
						}
						_ = idx.CreatedIn(tpt, tpt+5)
						_ = idx.SettledIn(tpt, tpt+5)
						_ = idx.Len()
						_ = idx.MemoryBytes()
					}
				}(w)
			}
			close(start)
			wg.Wait()
		})
	}
}
