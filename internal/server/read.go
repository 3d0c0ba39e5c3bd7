package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/obs"
	"domd/internal/statusq"
)

// readReq is one requested (avail, date) evaluation. atErr is the date's
// parse error: a batch row carrying one fails with it before its engine is
// consulted.
type readReq struct {
	avail int
	at    domain.Day
	atErr error
}

// answers selects what every request of one evaluation carries: the DoMD
// query, the prediction at alpha, or both.
type answers struct {
	query, predict bool
	alpha          float64
}

// readOut is one request's outcome: the views its answers asked for, or
// the error that failed the row.
type readOut struct {
	query *queryView
	pred  *predictRow
	err   error
}

// evaluate answers reqs with one readOut per request, in request order,
// and reports the number of distinct avails. Requests are grouped by
// avail: each distinct avail resolves its engine once and answers all its
// requests from one features.Row, so k dates of one avail extract each
// grid point once. The avails fan out over at most
// Options.FleetParallelism goroutines, and a failure stays in its own row.
func (s *Server) evaluate(ctx context.Context, reqs []readReq, ans answers) ([]readOut, int) {
	outs := make([]readOut, len(reqs))
	var groups [][]int // request indices per distinct avail, first-seen order
	slot := make(map[int]int, len(reqs))
	for i, q := range reqs {
		g, ok := slot[q.avail]
		if !ok {
			g = len(groups)
			slot[q.avail] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	fanOut(len(groups), s.fleetPar, func(g int) {
		s.evalAvail(ctx, groups[g], reqs, outs, ans)
	})
	return outs, len(groups)
}

// evalAvail answers the requests idx, which all name one avail, into outs
// from one engine resolution and one feature row. Each row fails alone,
// checking in order: the request context, its date, the engine, and the
// evaluation itself.
func (s *Server) evalAvail(ctx context.Context, idx []int, reqs []readReq, outs []readOut, ans answers) {
	var (
		row    *features.Row
		asOf   int64
		stale  bool
		engErr error
	)
	for _, i := range idx {
		o := &outs[i]
		if o.err = ctx.Err(); o.err != nil {
			continue
		}
		if o.err = reqs[i].atErr; o.err != nil {
			continue
		}
		if row == nil && engErr == nil {
			var eng *statusq.Engine
			if eng, asOf, stale, engErr = s.catalog.EngineAsOf(reqs[i].avail); engErr == nil {
				row = s.ext.NewRow(eng)
			}
		}
		if o.err = engErr; o.err != nil {
			continue
		}
		if ans.query {
			if o.query, o.err = s.renderQuery(row, asOf, stale, reqs[i].at); o.err != nil {
				continue
			}
		}
		if ans.predict {
			o.pred, o.err = s.renderPredict(row, asOf, stale, reqs[i].at, ans.alpha)
		}
	}
}

// fanOut calls work(i) for every i in [0, n) on at most par goroutines,
// the caller's among them, and returns once every call has returned. A
// panicking call ends only its own worker. After all workers finish, the
// first panic is re-raised on the caller's goroutine, its value carrying
// the worker's stack, so ServeHTTP's recovery answers 500 and the process
// keeps serving.
func fanOut(n, par int, work func(i int)) {
	if n == 0 {
		return
	}
	par = min(par, n)
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first any
	)
	worker := func() {
		defer func() {
			if v := recover(); v != nil {
				once.Do(func() { first = fmt.Sprintf("%v [fan-out worker]\n%s", v, debug.Stack()) })
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			work(i)
		}
	}
	wg.Add(par - 1)
	for range par - 1 {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// readOne answers GET /query and GET /predict: it parses ?avail=, ?date=
// and, when ans carries a prediction, ?alpha= (400 on each), evaluates the
// one request, and answers its failure itself: 404 unknown avail, 503 with
// Retry-After when the request's deadline expired or it was cancelled, and
// 422 otherwise. ok reports whether out holds the answer to render.
func (s *Server) readOne(w http.ResponseWriter, r *http.Request, ans answers) (out readOut, ok bool) {
	params := r.URL.Query()
	id, err := strconv.Atoi(params.Get("avail"))
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("missing or invalid avail parameter"))
		return out, false
	}
	at, err := domain.ParseDay(params.Get("date"))
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err)
		return out, false
	}
	if ans.predict {
		if ans.alpha, err = s.parseAlpha(params.Get("alpha")); err != nil {
			s.writeErr(w, r, http.StatusBadRequest, err)
			return out, false
		}
	}
	outs, _ := s.evaluate(r.Context(), []readReq{{avail: id, at: at}}, ans)
	out = outs[0]
	if out.err != nil {
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(out.err, statusq.ErrUnknownAvail):
			status = http.StatusNotFound
		case errors.Is(out.err, context.Canceled), errors.Is(out.err, context.DeadlineExceeded):
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", s.retryAfterSeconds())
		}
		s.writeErr(w, r, status, out.err)
		return out, false
	}
	return out, true
}

// decodeBody strictly decodes a POST body of at most Options.MaxBodyBytes
// into v (unknown fields are malformed), answering 413 for an oversized
// body and 400 for a malformed one itself. It reports whether v holds the
// body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeErr(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("malformed JSON body: %w", err))
		return false
	}
	return true
}

// batchReqs turns a batch body's queries into requests, parsing each date.
// An empty batch answers 400 and one over MaxBatchQueries 422; ok reports
// whether the batch is servable.
func (s *Server) batchReqs(w http.ResponseWriter, r *http.Request, qs []batchQueryIn) (reqs []readReq, ok bool) {
	if len(qs) == 0 {
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("empty batch: provide at least one query"))
		return nil, false
	}
	if len(qs) > MaxBatchQueries {
		s.writeErr(w, r, http.StatusUnprocessableEntity,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(qs), MaxBatchQueries))
		return nil, false
	}
	reqs = make([]readReq, len(qs))
	for i, q := range qs {
		reqs[i].avail = q.Avail
		reqs[i].at, reqs[i].atErr = domain.ParseDay(q.Date)
	}
	return reqs, true
}

// spanRows annotates the request's trace span with the summary every
// multi-row read emits: rows, distinct avails, and the stale, failed and
// prediction_unavailable row counts.
func spanRows(ctx context.Context, outs []readOut, avails int) {
	sp := obs.FromContext(ctx)
	if sp == nil {
		return
	}
	stale, failed, unavailable := 0, 0, 0
	for _, o := range outs {
		if o.err != nil {
			failed++
			continue
		}
		if (o.query != nil && o.query.Stale) || (o.pred != nil && o.pred.Stale) {
			stale++
		}
		if o.pred != nil && o.pred.PredictionUnavailable {
			unavailable++
		}
	}
	sp.SetInt("rows", int64(len(outs)))
	sp.SetInt("avails", int64(avails))
	sp.SetInt("staleRows", int64(stale))
	sp.SetInt("failedRows", int64(failed))
	sp.SetInt("unavailablePredictions", int64(unavailable))
}
