// Package workload defines the benchmark's traffic mixes, the fleet each
// one runs against, and the seeded operation streams both the end-to-end
// run (cmd/bench) and the traced replay (cmd/tracer) draw from, so the two
// runs issue the same operations in the same order per client.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"domd/internal/domain"
	"domd/internal/navsim"
	"domd/internal/swlin"
	"domd/internal/table"
)

// Kind is one operation class of the DoMD HTTP API.
type Kind int

// The operation kinds the workloads mix.
const (
	Query   Kind = iota // GET /query
	Predict             // GET /predict
	Fleet               // GET /fleet
	Ingest              // POST /rccs
	NumKinds
)

var kindNames = [NumKinds]string{"query", "predict", "fleet", "ingest"}

func (k Kind) String() string { return kindNames[k] }

// Kinds lists every operation kind in report order.
func Kinds() []Kind { return []Kind{Query, Predict, Fleet, Ingest} }

// Spec is one workload: the shape of its fleet and its operation mix.
type Spec struct {
	Name string
	// Ongoing is the number of ongoing avails the traffic targets; Scale
	// replicates each ongoing avail's RCC history that many times by the
	// navsim.Scale rule (dates kept, fresh ids).
	Ongoing, Scale int
	// Mix weights the operation kinds; a kind with weight 0 is never sent.
	Mix [NumKinds]int
}

// Specs are the benchmark's workloads. Later changes cite them by name.
var Specs = []Spec{
	// Long histories: every read is dominated by the from-scratch feature
	// sweep at up to 11 grid points; no writes, so the WAL does no work.
	{Name: "wide-read", Ongoing: 6, Scale: 32, Mix: [NumKinds]int{Query: 1, Predict: 1}},
	// 48 rows per request over small histories: per-row fixed costs
	// (engine lookup, model evaluation, top features, JSON) carry a large
	// share, and each row extracts features twice.
	{Name: "fleet-scan", Ongoing: 48, Scale: 1, Mix: [NumKinds]int{Fleet: 1}},
	// The durable ingest path (append + fsync under the shard mutex,
	// delta-apply, a snapshot every 1024 ingests) beside small reads.
	{Name: "ingest-mix", Ongoing: 6, Scale: 1, Mix: [NumKinds]int{Query: 1, Predict: 1, Ingest: 2}},
}

// Lookup finds a workload by name.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(Specs))
	for i, s := range Specs {
		names[i] = s.Name
	}
	return Spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Issues reports whether the workload sends operations of kind k.
func (s Spec) Issues(k Kind) bool { return s.Mix[k] > 0 }

// Every workload's fleet is navsim's paper-scale dataset: 187 closed
// avails with about 283 RCCs each, then the workload's ongoing avails, all
// drawn with navsim seed 1. The closed avails come first in navsim's draw,
// so they, and the models trained on them, are the same for every
// workload. The fleet does not depend on the benchmark's seed, which
// draws only the traffic: with six ongoing avails, which histories a draw
// yields moved p50 by up to half between seeds, more than any bound a
// comparison of two commits could tolerate.
const (
	numClosed = 187
	meanRCCs  = 283
	fleetSeed = 1
)

// Dataset is one workload's generated Navy Maintenance Database.
type Dataset struct {
	Avails []domain.Avail
	RCCs   []domain.RCC
	// Ongoing lists the ongoing avail ids in ascending order, the order
	// /fleet renders its rows in.
	Ongoing []int
	// FleetDate is the /fleet date: the day after the latest ongoing
	// actual start, so every row is past its start and carries a result.
	FleetDate domain.Day

	avails map[int]*domain.Avail
	codes  []int // SWLIN codes ingested RCCs draw from
	nextID int   // first RCC id above every fleet RCC
}

// Generate builds workload s's fleet. Scale replicates only the ongoing
// avails' histories; the replicas take fresh ids above every other RCC.
func Generate(s Spec) (*Dataset, error) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: numClosed, NumOngoing: s.Ongoing, MeanRCCsPerAvail: meanRCCs, Seed: fleetSeed})
	if err != nil {
		return nil, err
	}
	f := &Dataset{Avails: ds.Avails, avails: map[int]*domain.Avail{}}
	ongoing := &navsim.Dataset{}
	for _, r := range ds.RCCs {
		if ds.Avails[r.AvailID-1].Status == domain.StatusOngoing {
			ongoing.RCCs = append(ongoing.RCCs, r)
		} else {
			f.RCCs = append(f.RCCs, r)
		}
	}
	if ongoing, err = navsim.Scale(ongoing, s.Scale); err != nil {
		return nil, err
	}
	f.RCCs = append(f.RCCs, ongoing.RCCs...)
	for i := range f.RCCs {
		f.nextID = max(f.nextID, f.RCCs[i].ID+1)
		f.codes = append(f.codes, f.RCCs[i].SWLIN)
	}
	for i := range f.Avails {
		a := &f.Avails[i]
		f.avails[a.ID] = a
		if a.Status == domain.StatusOngoing {
			f.Ongoing = append(f.Ongoing, a.ID)
			f.FleetDate = max(f.FleetDate, a.ActStart+1)
		}
	}
	return f, nil
}

// Avail resolves a fleet avail by id.
func (f *Dataset) Avail(id int) *domain.Avail { return f.avails[id] }

// WriteCSV writes the fleet as the avails.csv and rccs.csv tables domd
// reads, returning their paths.
func (f *Dataset) WriteCSV(dir string) (avails, rccs string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	avails, rccs = filepath.Join(dir, "avails.csv"), filepath.Join(dir, "rccs.csv")
	if err := writeFile(avails, func(fh *os.File) error { return table.WriteAvails(fh, f.Avails) }); err != nil {
		return "", "", err
	}
	if err := writeFile(rccs, func(fh *os.File) error { return table.WriteRCCs(fh, f.RCCs) }); err != nil {
		return "", "", err
	}
	return avails, rccs, nil
}

func writeFile(path string, write func(*os.File) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close() //lint:ignore droppederr best-effort close; the write error is returned
		return fmt.Errorf("write %s: %w", path, err)
	}
	return fh.Close()
}

// Op is one operation against the DoMD API.
type Op struct {
	Kind  Kind
	Avail int        // target avail; 0 for Fleet
	Date  domain.Day // query date; unused for Ingest
	RCC   domain.RCC // the ingested RCC (Ingest only)
	Key   string     // the Idempotency-Key (Ingest only)
}

// IDSpan is the block of fresh RCC ids each client's ingests draw from.
const IDSpan = 10_000_000

// WarmupClient is the client index whose id block set-up warm-up ingests
// use, apart from every measured client's.
const WarmupClient = 99

// Stream is one client's seeded operation sequence. The same workload,
// seed and client give the same operations in the same order.
type Stream struct {
	f      *Dataset
	spec   Spec
	rng    *rand.Rand
	seed   int64
	client int
	n      int // ingests drawn so far
}

// Stream starts client's operation sequence for seed.
func (f *Dataset) Stream(s Spec, seed int64, client int) *Stream {
	return &Stream{f: f, spec: s, seed: seed, client: client,
		rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)))}
}

// Next draws the next operation: a kind by the workload's mix, then, for
// per-avail kinds, a uniformly random ongoing avail.
func (st *Stream) Next() Op {
	total := 0
	for _, w := range st.spec.Mix {
		total += w
	}
	x := st.rng.Intn(total)
	k := Query
	for ; x >= st.spec.Mix[k]; k++ {
		x -= st.spec.Mix[k]
	}
	if k == Fleet {
		return Op{Kind: Fleet, Date: st.f.FleetDate}
	}
	return st.op(k, st.f.Ongoing[st.rng.Intn(len(st.f.Ongoing))])
}

// op draws a per-avail operation of kind k on avail id. Reads ask at a
// t* uniform in [20, 90]; an ingest creates a fresh RCC inside the avail's
// planned window with an id no other client or run phase uses.
func (st *Stream) op(k Kind, id int) Op {
	a := st.f.avails[id]
	if k != Ingest {
		return Op{Kind: k, Avail: id, Date: a.PhysicalTime(20 + 70*st.rng.Float64())}
	}
	created := a.PhysicalTime(100 * st.rng.Float64())
	r := domain.RCC{
		ID:      st.f.nextID + st.client*IDSpan + st.n,
		AvailID: id,
		Type:    domain.RCCType(st.rng.Intn(domain.NumRCCTypes)),
		SWLIN:   st.f.codes[st.rng.Intn(len(st.f.codes))],
		Created: created,
		Settled: created + domain.Day(1+st.rng.Intn(90)),
		Amount:  math.Round(math.Exp(9.5+st.rng.NormFloat64())*100) / 100,
	}
	st.n++
	return Op{Kind: Ingest, Avail: id, RCC: r, Key: fmt.Sprintf("bench-s%d-c%d-%d", st.seed, st.client, r.ID)}
}

// Warmup is the set-up traffic: one operation of every kind the workload
// issues per ongoing avail — a single /fleet covers every avail — with
// reads at t* = 90 so they build every grid point's path.
func (f *Dataset) Warmup(s Spec, seed int64) []Op {
	st := f.Stream(s, seed, WarmupClient)
	var ops []Op
	if s.Issues(Fleet) {
		ops = append(ops, Op{Kind: Fleet, Date: f.FleetDate})
	}
	for _, id := range f.Ongoing {
		for _, k := range []Kind{Query, Predict, Ingest} {
			if !s.Issues(k) {
				continue
			}
			op := st.op(k, id)
			if k != Ingest {
				op.Date = f.avails[id].PhysicalTime(90)
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// rccBody is the POST /rccs wire form.
type rccBody struct {
	ID      int     `json:"id"`
	AvailID int     `json:"avail_id"`
	Type    string  `json:"type"`
	SWLIN   string  `json:"swlin"`
	Created string  `json:"created"`
	Settled string  `json:"settled"`
	Amount  float64 `json:"amount"`
}

// Request renders op as the HTTP method, request target and body the
// server takes; an Ingest also sends op.Key as its Idempotency-Key.
func (op Op) Request() (method, target string, body []byte) {
	switch op.Kind {
	case Query:
		return "GET", fmt.Sprintf("/query?avail=%d&date=%s", op.Avail, op.Date), nil
	case Predict:
		return "GET", fmt.Sprintf("/predict?avail=%d&date=%s", op.Avail, op.Date), nil
	case Fleet:
		return "GET", "/fleet?date=" + op.Date.String(), nil
	}
	r := op.RCC
	//lint:ignore droppederr marshalling a struct of plain fields cannot fail
	body, _ = json.Marshal(rccBody{
		ID: r.ID, AvailID: r.AvailID, Type: r.Type.String(), SWLIN: swlin.Code(r.SWLIN).String(),
		Created: r.Created.String(), Settled: r.Settled.String(), Amount: r.Amount,
	})
	return "POST", "/rccs", body
}
