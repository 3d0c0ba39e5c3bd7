package statusq_test

import (
	"fmt"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/statusq"
)

// A Status Query (paper Fig. 3): at 30% of planned duration, how many
// Growth RCCs are active, and what do the settled ones total in dollars?
func ExampleEngine_Eval() {
	avail := &domain.Avail{
		ID: 1, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 100, ActStart: 0, ActEnd: 120,
	}
	rccs := []domain.RCC{
		{ID: 1, AvailID: 1, Type: domain.Growth, SWLIN: 43411001, Created: 10, Settled: 50, Amount: 8000},
		{ID: 2, AvailID: 1, Type: domain.Growth, SWLIN: 43422001, Created: 20, Settled: 90, Amount: 34520},
		{ID: 3, AvailID: 1, Type: domain.NewWork, SWLIN: 91190001, Created: 5, Settled: 25, Amount: 56724},
	}
	eng, err := statusq.NewEngine(avail, rccs, index.KindAVL)
	if err != nil {
		panic(err)
	}
	g := domain.Growth
	activeGrowth, err := eng.Eval(30, statusq.Query{
		Type: &g, Status: domain.Active, Agg: statusq.Count,
	})
	if err != nil {
		panic(err)
	}
	settledDollars, err := eng.Eval(30, statusq.Query{
		Status: domain.SettledStatus, Agg: statusq.SumAmount,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("active growth RCCs: %.0f, settled dollars: %.0f\n", activeGrowth, settledDollars)
	// Output: active growth RCCs: 2, settled dollars: 56724
}
