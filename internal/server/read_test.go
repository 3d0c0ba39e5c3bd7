package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"domd/internal/domain"
	"domd/internal/navsim"
	"domd/internal/statusq"
)

// newReadServer serves a navsim fleet of 40 closed and `ongoing` ongoing
// avails from a one-shard tier, in process: tests drive it through
// ServeHTTP, so the full middleware stack runs without a socket.
func newReadServer(tb testing.TB, ongoing int, opts Options) (*Server, *navsim.Dataset) {
	tb.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: ongoing, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		tb.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	return New(pipe, ext, openTier(tb, ds.Avails, ds.RCCs), opts), ds
}

// serve runs one request through h and returns the status and body.
func serve(h http.Handler, method, target, body string) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	return rec.Code, rec.Body.Bytes()
}

// rawRow is one batch row with its result document kept as raw JSON.
type rawRow struct {
	AvailID int             `json:"avail_id"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
}

// matchSingle checks one multi-row answer against the single-read route
// (GET /query or GET /predict) for the same avail and date: a result must
// be byte-equal to the single read's document, and an error must carry the
// single read's error text.
func matchSingle(t *testing.T, h http.Handler, route string, avail int, date, extra string, result json.RawMessage, errText string) {
	t.Helper()
	target := fmt.Sprintf("%s?avail=%d&date=%s%s", route, avail, url.QueryEscape(date), extra)
	status, body := serve(h, http.MethodGet, target, "")
	if status == http.StatusOK {
		if errText != "" || !bytes.Equal(bytes.TrimSpace(body), result) {
			t.Errorf("%s: row (%s, error %q) differs from the single read\n%s", target, result, errText, body)
		}
		return
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("%s: %d with undecodable body %q", target, status, body)
	}
	if result != nil || e.Error != errText {
		t.Errorf("%s: row (%s, error %q), single read %d %q", target, result, errText, status, e.Error)
	}
}

// TestReadPathDifferential is the gate for answering a batch's dates of
// one avail from one shared feature row: every POST /query/batch row,
// every POST /predict row and every /fleet row is byte-equal, as JSON of
// its result document, to GET /query or GET /predict for the same avail
// and date. The batches repeat avails in shuffled date order and carry
// dates before an avail's start, an unknown avail and garbage dates.
func TestReadPathDifferential(t *testing.T) {
	s, ds := newReadServer(t, 3, Options{Models: newTestRegistry(t)})
	var picks []domain.Avail
	for _, a := range ds.Avails {
		if a.Status == domain.StatusOngoing || len(picks) < 3 {
			picks = append(picks, a)
		}
	}
	var qs []batchQueryIn
	for _, a := range picks {
		for _, ts := range []float64{0, 3, 7, 25, 33.3, 50, 64, 90, 100, 130} {
			qs = append(qs, batchQueryIn{Avail: a.ID, Date: a.PhysicalTime(ts).String()})
		}
		qs = append(qs,
			batchQueryIn{Avail: a.ID, Date: (a.ActStart - 10).String()},
			batchQueryIn{Avail: a.ID, Date: "garbage"},
			batchQueryIn{Avail: 999999, Date: a.PhysicalTime(50).String()})
	}
	rand.New(rand.NewSource(18)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })

	for _, c := range []struct {
		route, single, extra string
		body                 any
	}{
		{"/query/batch", "/query", "", batchIn{Queries: qs}},
		{"/predict", "/predict", "&alpha=0.1", predictBatchIn{Queries: qs, Alpha: 0.1}},
	} {
		body, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		status, out := serve(s, http.MethodPost, c.route, string(body))
		if status != http.StatusOK {
			t.Fatalf("POST %s = %d %s", c.route, status, out)
		}
		var rows []rawRow
		if err := json.Unmarshal(out, &rows); err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(qs) {
			t.Fatalf("POST %s: %d rows for %d queries", c.route, len(rows), len(qs))
		}
		answered := 0
		for i, row := range rows {
			if row.AvailID != qs[i].Avail {
				t.Fatalf("POST %s row %d echoes avail %d, want %d", c.route, i, row.AvailID, qs[i].Avail)
			}
			if row.Result != nil {
				answered++
			}
			matchSingle(t, s, c.single, qs[i].Avail, qs[i].Date, c.extra, row.Result, row.Error)
		}
		if answered == 0 || answered == len(rows) {
			t.Errorf("POST %s: %d of %d rows answered; the batch must mix answers and failures", c.route, answered, len(rows))
		}
	}

	lead := picks[len(picks)-1]
	predicted := 0
	for _, ts := range []float64{10, 30, 75} {
		date := lead.PhysicalTime(ts).String()
		status, out := serve(s, http.MethodGet, "/fleet?date="+date, "")
		if status != http.StatusOK {
			t.Fatalf("GET /fleet = %d", status)
		}
		var rows []map[string]json.RawMessage
		if err := json.Unmarshal(out, &rows); err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			var id int
			var errText string
			if err := json.Unmarshal(row["avail_id"], &id); err != nil {
				t.Fatal(err)
			}
			if e := row["error"]; e != nil {
				if err := json.Unmarshal(e, &errText); err != nil {
					t.Fatal(err)
				}
			}
			matchSingle(t, s, "/query", id, date, "", row["result"], errText)
			if errText != "" {
				continue
			}
			_, pred := serve(s, http.MethodGet, fmt.Sprintf("/predict?avail=%d&date=%s", id, date), "")
			var p map[string]json.RawMessage
			if err := json.Unmarshal(pred, &p); err != nil {
				t.Fatal(err)
			}
			if p["predicted_delay"] != nil {
				predicted++
			}
			for _, k := range []string{"predicted_delay", "band_lo", "band_hi", "model_version", "window_fallback", "prediction_unavailable"} {
				if !bytes.Equal(row[k], p[k]) {
					t.Errorf("fleet avail %d @%s %s: %s, /predict %s", id, date, k, row[k], p[k])
				}
			}
		}
	}
	if predicted == 0 {
		t.Error("no /fleet row carried a prediction")
	}
}

// TestFanOutReraisesWorkerPanic: a panicking worker does not kill the
// process; fanOut re-raises the panic on its caller, with the worker's
// stack in the value, only after every other call has returned.
func TestFanOutReraisesWorkerPanic(t *testing.T) {
	const n, par = 32, 4
	var done atomic.Int64
	var v any
	func() {
		defer func() { v = recover() }()
		fanOut(n, par, func(i int) {
			if i == 0 {
				panic("boom in a worker")
			}
			time.Sleep(time.Millisecond)
			done.Add(1)
		})
	}()
	if v == nil {
		t.Fatal("the worker panic was swallowed")
	}
	if got := done.Load(); got != n-1 {
		t.Errorf("re-raised with %d of %d other calls finished", got, n-1)
	}
	msg := fmt.Sprint(v)
	if !strings.Contains(msg, "boom in a worker") || !strings.Contains(msg, "server.fanOut") {
		t.Errorf("re-raised value lacks the panic or the worker stack:\n%s", msg)
	}
}

// TestFanOutVisitsEachIndexOnce: every index runs exactly once, never on
// more than par goroutines at a time, and n = 0 runs nothing.
func TestFanOutVisitsEachIndexOnce(t *testing.T) {
	const n, par = 200, 3
	var visits [n]atomic.Int32
	var live, peak atomic.Int32
	fanOut(n, par, func(i int) {
		cur := live.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		visits[i].Add(1)
		live.Add(-1)
	})
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	if p := peak.Load(); p > par {
		t.Errorf("%d calls ran at once, want <= %d", p, par)
	}
	fanOut(0, par, func(int) { t.Error("n = 0 ran a call") })
}

// panickyCatalog panics inside EngineAsOf while armed, which is to say
// inside a fan-out worker of every multi-row read. An armed lookup first
// waits at gate until every lookup the test expects has arrived, so the
// panics land on every worker goroutine at once, not only on the
// handler's own.
type panickyCatalog struct {
	*statusq.ShardedCatalog
	armed atomic.Bool
	gate  sync.WaitGroup
}

func (c *panickyCatalog) EngineAsOf(id int) (*statusq.Engine, int64, bool, error) {
	if c.armed.Load() {
		c.gate.Done()
		c.gate.Wait()
		panic("chaos: engine lookup panic")
	}
	return c.ShardedCatalog.EngineAsOf(id)
}

// TestChaosFanOutWorkerPanic: a panic inside a /fleet or batch worker
// answers 500, counts domd_http_panics_total, and the server keeps
// serving the same routes afterwards.
func TestChaosFanOutWorkerPanic(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	cat := &panickyCatalog{ShardedCatalog: openTier(t, ds.Avails, ds.RCCs)}
	s := New(pipe, ext, cat, Options{Logger: log.New(io.Discard, "", 0)})
	date := fleetDate(ds).String()
	batch := fmt.Sprintf(`{"queries":[{"avail":%d,"date":%q}]}`, ds.Avails[0].ID, ds.Avails[0].PhysicalTime(50))

	cat.armed.Store(true)
	before := mPanics.Value()
	for i := 0; i < 2; i++ {
		cat.gate.Add(len(cat.OngoingIDs()))
		if status, body := serve(s, http.MethodGet, "/fleet?date="+date, ""); status != http.StatusInternalServerError {
			t.Fatalf("armed /fleet #%d = %d %s, want 500", i, status, body)
		}
	}
	cat.gate.Add(1)
	if status, _ := serve(s, http.MethodPost, "/query/batch", batch); status != http.StatusInternalServerError {
		t.Fatalf("armed /query/batch = %d, want 500", status)
	}
	if got := mPanics.Value() - before; got != 3 {
		t.Errorf("domd_http_panics_total rose by %d, want 3", got)
	}
	cat.armed.Store(false)
	if status, _ := serve(s, http.MethodGet, "/fleet?date="+date, ""); status != http.StatusOK {
		t.Errorf("/fleet after the panics = %d, want 200", status)
	}
	if status, _ := serve(s, http.MethodPost, "/query/batch", batch); status != http.StatusOK {
		t.Errorf("/query/batch after the panics = %d, want 200", status)
	}
}

// TestNaNPredictAlphaDegrades: a NaN served alpha (Options.PredictAlpha)
// fails the conformal margin's range check, so /fleet degrades every row
// to prediction_unavailable like any other model failure instead of
// indexing the residuals with int(NaN) inside a fan-out worker.
func TestNaNPredictAlphaDegrades(t *testing.T) {
	s, ds := newReadServer(t, 3, Options{Models: newTestRegistry(t), PredictAlpha: math.NaN()})
	for i := 0; i < 2; i++ {
		status, body := serve(s, http.MethodGet, "/fleet?date="+fleetDate(ds).String(), "")
		if status != http.StatusOK {
			t.Fatalf("/fleet #%d = %d %s, want 200", i, status, body)
		}
		var rows []fleetRow
		if err := json.Unmarshal(body, &rows); err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if row.Error == "" && !row.PredictionUnavailable {
				t.Errorf("avail %d: a NaN alpha produced a prediction", row.AvailID)
			}
		}
	}
}

// TestExpiredRequestAnswers503: a single read whose request context is
// already done answers 503 with Retry-After, as load shedding does, not
// 422; /fleet and the batch forms keep 200 with the error in each row.
func TestExpiredRequestAnswers503(t *testing.T) {
	s, ds := newReadServer(t, 3, Options{})
	a := ds.Avails[firstOngoing(t, ds)]
	date := a.PhysicalTime(50).String()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	for _, route := range []string{"/query", "/predict"} {
		rec := do(http.MethodGet, fmt.Sprintf("%s?avail=%d&date=%s", route, a.ID, date), "")
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("cancelled GET %s = %d (Retry-After %q), want 503 with Retry-After",
				route, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
	batch := fmt.Sprintf(`{"queries":[{"avail":%d,"date":%q}]}`, a.ID, date)
	for _, c := range []struct{ method, target, body string }{
		{http.MethodGet, "/fleet?date=" + date, ""},
		{http.MethodPost, "/query/batch", batch},
		{http.MethodPost, "/predict", batch},
	} {
		rec := do(c.method, c.target, c.body)
		var rows []rawRow
		if err := json.Unmarshal(rec.Body.Bytes(), &rows); rec.Code != http.StatusOK || err != nil || len(rows) == 0 {
			t.Fatalf("cancelled %s %s = %d %s", c.method, c.target, rec.Code, rec.Body)
		}
		for _, row := range rows {
			if row.Error != context.Canceled.Error() {
				t.Errorf("cancelled %s %s row %d: error %q", c.method, c.target, row.AvailID, row.Error)
			}
		}
	}
}

// TestConcurrentReadPathWithIngest is the -race gate for the one read
// path: mixed /query/batch and POST /predict batches (repeated avails,
// shuffled dates) and /fleet sweeps run while POST /rccs ingests land on
// the avails they read. Every read answers 200 with one row per query,
// echoing avail_id in order.
func TestConcurrentReadPathWithIngest(t *testing.T) {
	s, ds := newReadServer(t, 3, Options{Models: newTestRegistry(t)})
	var ongoing []domain.Avail
	for _, a := range ds.Avails {
		if a.Status == domain.StatusOngoing {
			ongoing = append(ongoing, a)
		}
	}
	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	var rccID atomic.Int64
	rccID.Store(20_000_000) // above every generated RCC id
	check := func(method, target, body string, wantRows int, echo []int) {
		status, out := serve(s, method, target, body)
		if status != http.StatusOK {
			t.Errorf("%s %s = %d %s", method, target, status, out)
			return
		}
		var rows []rawRow
		if err := json.Unmarshal(out, &rows); err != nil || len(rows) != wantRows {
			t.Errorf("%s %s: %d rows (err %v), want %d", method, target, len(rows), err, wantRows)
			return
		}
		for i, id := range echo {
			if rows[i].AvailID != id {
				t.Errorf("%s %s row %d echoes avail %d, want %d", method, target, i, rows[i].AvailID, id)
			}
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				var qs []batchQueryIn
				var echo []int
				for k := 0; k < 12; k++ {
					a := ongoing[rng.Intn(len(ongoing))]
					qs = append(qs, batchQueryIn{Avail: a.ID, Date: a.PhysicalTime(float64(rng.Intn(110))).String()})
					echo = append(echo, a.ID)
				}
				var in any = batchIn{Queries: qs}
				route := "/query/batch"
				if w%2 == 1 {
					in, route = predictBatchIn{Queries: qs}, "/predict"
				}
				body, err := json.Marshal(in)
				if err != nil {
					t.Error(err)
					return
				}
				check(http.MethodPost, route, string(body), len(qs), echo)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			check(http.MethodGet, "/fleet?date="+fleetDate(ds).String(), "", len(ongoing), nil)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := ongoing[(w+i)%len(ongoing)]
				status, out := serve(s, http.MethodPost, "/rccs", rccBody(int(rccID.Add(1)), a))
				if status != http.StatusCreated {
					t.Errorf("POST /rccs = %d %s", status, out)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkQueryBatch measures POST /query/batch in process for the two
// batch shapes: one avail × 64 dates (the dates share one engine and one
// feature row) and 48 avails × 1 date (one fan-out unit per avail).
func BenchmarkQueryBatch(b *testing.B) {
	s, ds := newReadServer(b, 8, Options{})
	a := ds.Avails[0]
	var oneAvail, manyAvails batchIn
	for k := 1; k <= 64; k++ {
		oneAvail.Queries = append(oneAvail.Queries, batchQueryIn{Avail: a.ID, Date: a.PhysicalTime(1.5 * float64(k)).String()})
	}
	for _, av := range ds.Avails {
		manyAvails.Queries = append(manyAvails.Queries, batchQueryIn{Avail: av.ID, Date: av.PhysicalTime(50).String()})
	}
	for _, c := range []struct {
		name string
		in   batchIn
	}{
		{"avails=1/dates=64", oneAvail},
		{fmt.Sprintf("avails=%d/dates=1", len(manyAvails.Queries)), manyAvails},
	} {
		body, err := json.Marshal(c.in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, out := serve(s, http.MethodPost, "/query/batch", string(body)); status != http.StatusOK {
					b.Fatalf("status %d: %s", status, out)
				}
			}
		})
	}
}
