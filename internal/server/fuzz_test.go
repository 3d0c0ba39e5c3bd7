package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzEndpoints are the read and ingest routes FuzzReadRequests drives.
var fuzzEndpoints = []struct{ method, path string }{
	{http.MethodGet, "/query"},
	{http.MethodGet, "/predict"},
	{http.MethodGet, "/fleet"},
	{http.MethodPost, "/query/batch"},
	{http.MethodPost, "/predict"},
	{http.MethodPost, "/rccs"},
}

// FuzzReadRequests throws raw query strings and bodies at the read and
// ingest surface of one fixture server (with a model registry, and a
// 16 KiB body cap so oversized bodies stay small). The endpoint byte picks
// the route. Invariants: no answer is a 5xx (a handler panic would answer
// 500), and a 200 batch answer has exactly one row per decoded query,
// echoing avail_id in order.
func FuzzReadRequests(f *testing.F) {
	s, ds := newReadServer(f, 3, Options{Models: newTestRegistry(f), MaxBodyBytes: 16 << 10})
	a := ds.Avails[0]
	for _, av := range ds.Avails {
		if av.PhysicalTime(50) > a.PhysicalTime(50) {
			a = av
		}
	}
	date := a.PhysicalTime(50).String()
	one := fmt.Sprintf(`{"avail":%d,"date":%q}`, a.ID, date)
	many := `{"queries":[` + strings.TrimSuffix(strings.Repeat(one+",", MaxBatchQueries+1), ",") + `]}`
	params := fmt.Sprintf("avail=%d&date=%s", a.ID, date)
	for _, seed := range []struct {
		ep          int
		query, body string
	}{
		{0, params, ""},
		{0, "avail=999999&date=" + date, ""},
		{0, fmt.Sprintf("avail=%d&date=garbage", a.ID), ""},
		{1, params + "&alpha=0.1", ""},
		{1, params + "&alpha=NaN", ""},
		{1, params + "&alpha=-Inf", ""},
		{2, "date=" + date, ""},
		{2, "date=9999-12-31", ""},
		{3, "", `{"queries":[` + one + `,{"avail":999999,"date":"2020-01-01"},{"avail":1,"date":"x"}]}`},
		{3, "", many},
		{3, "", `{"queries":[],"extra":1}`},
		{3, "", `{"quarries":[` + one + `]}`},
		{3, "", `{"queries":[` + one + `]} trailing`},
		{3, "", `{"queries":"` + strings.Repeat("x", 17<<10) + `"}`},
		{4, "", `{"queries":[` + one + `],"alpha":0.1}`},
		{4, "", `{"queries":[` + one + `],"alpha":-0.5}`},
		{4, "", `{"queries":[` + one + `],"alpha":1e308}`},
		{4, "", many},
		{5, "", rccBody(77_000_001, a)},
		{5, "", `{"id":1,"avail_id":1,"type":"Q","swlin":"1","created":"x","settled":"y","amount":1,"bogus":2}`},
	} {
		f.Add(uint8(seed.ep), seed.query, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, ep uint8, query string, body []byte) {
		e := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		req := httptest.NewRequest(e.method, e.path, bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s?%q body %q = %d %s", e.method, e.path, query, body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK || e.method != http.MethodPost || e.path == "/rccs" {
			return
		}
		var in batchIn
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
			t.Fatalf("%s accepted a body that does not decode: %v", e.path, err)
		}
		var rows []rawRow
		if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
			t.Fatalf("%s: undecodable 200 answer: %v", e.path, err)
		}
		if len(rows) != len(in.Queries) {
			t.Fatalf("%s: %d rows for %d queries", e.path, len(rows), len(in.Queries))
		}
		for i, q := range in.Queries {
			if rows[i].AvailID != q.Avail {
				t.Fatalf("%s row %d echoes avail %d, want %d", e.path, i, rows[i].AvailID, q.Avail)
			}
		}
	})
}
