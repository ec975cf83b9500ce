package main

// The generator: one process, at most conns connections to the front
// process, an open-loop phase on a fixed schedule and a closed-loop phase
// of back-to-back batches.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Wire names the benchmark relies on (docs/server.md, docs/cluster.md).
const (
	binaryContentType = "application/octet-stream"
	stampHeader       = "X-Sketch-Stamp"
	stalenessHeader   = "X-Sketch-Staleness"
	traceHeader       = "X-Sketch-Trace"
)

// maxErrMsgs bounds the failure messages kept per run for the report.
const maxErrMsgs = 5

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// driver sends one workload's inputs to one fleet.
type driver struct {
	in     *inputs
	client *http.Client
	base   string
	spans  *spanLog // nil outside the traced pass

	sent  atomic.Int64 // batches whose send has begun: every group they hold counts as emitted
	ackMu sync.Mutex
	acks  []ackPoint // window workloads only
}

// queryRecord is one answered query, kept for the answer checks.
type queryRecord struct {
	due      time.Time // when the query was due (open loop) or sent (closed loop)
	sent     int       // batches sent when the answer arrived
	stale    time.Duration
	samples  [][]float64
	estimate float64
}

// opStats accumulates one phase's operations.
type opStats struct {
	ingestMS, queryMS []float64 // latency of each answered operation
	ingests, queries  int       // attempted
	failed            int
	acked             int64 // points acknowledged
	records           []queryRecord
	errs              []string
}

func (s *opStats) fail(err error) {
	s.failed++
	if len(s.errs) < maxErrMsgs {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *opStats) add(o *opStats) {
	s.ingestMS = append(s.ingestMS, o.ingestMS...)
	s.queryMS = append(s.queryMS, o.queryMS...)
	s.ingests += o.ingests
	s.queries += o.queries
	s.acked += o.acked
	s.records = append(s.records, o.records...)
	for _, e := range o.errs {
		if len(s.errs) < maxErrMsgs {
			s.errs = append(s.errs, e)
		}
	}
	s.failed += o.failed
}

func (d *driver) markSent(b int) {
	for {
		cur := d.sent.Load()
		if int64(b) < cur || d.sent.CompareAndSwap(cur, int64(b)+1) {
			return
		}
	}
}

// ingest posts batch b and checks that every point was accepted.
func (d *driver) ingest(ctx context.Context, b, parent int) error {
	d.markSent(b)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/ingest", bytes.NewReader(d.in.body(b)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", binaryContentType)
	if d.in.stamps != nil {
		req.Header.Set(stampHeader, strconv.FormatInt(d.in.stamps[b], 10))
	}
	sp := d.spans.request(req, "ingest", parent)
	body, _, err := d.do(req)
	d.spans.end(sp)
	if err != nil {
		return fmt.Errorf("ingest batch %d: %w", b, err)
	}
	var ir struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(body, &ir); err != nil || ir.Ingested != batchSize {
		return fmt.Errorf("ingest batch %d: accepted %d of %d points (%v)", b, ir.Ingested, batchSize, err)
	}
	if d.in.stamps != nil {
		d.ackMu.Lock()
		m := d.in.stamps[b]
		if n := len(d.acks); n > 0 {
			m = max(m, d.acks[n-1].maxStamp)
		}
		d.acks = append(d.acks, ackPoint{at: time.Now(), maxStamp: m})
		d.ackMu.Unlock()
	}
	return nil
}

// query asks the front process for an answer.
func (d *driver) query(ctx context.Context, due time.Time, parent int) (queryRecord, error) {
	url := d.base + "/query"
	if d.in.w.k > 1 {
		url += "?k=" + strconv.Itoa(d.in.w.k)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return queryRecord{}, err
	}
	sp := d.spans.request(req, "query", parent)
	body, hdr, err := d.do(req)
	d.spans.end(sp)
	if err != nil {
		return queryRecord{}, fmt.Errorf("query: %w", err)
	}
	rec := queryRecord{due: due, sent: int(d.sent.Load())}
	var qr struct {
		Estimate float64     `json:"estimate"`
		Sample   []float64   `json:"sample"`
		Samples  [][]float64 `json:"samples"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		return rec, fmt.Errorf("query: decoding answer: %w", err)
	}
	rec.estimate = qr.Estimate
	rec.samples = qr.Samples
	if qr.Sample != nil {
		rec.samples = append(rec.samples, qr.Sample)
	}
	if v := hdr.Get(stalenessHeader); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return rec, fmt.Errorf("query: bad %s %q", stalenessHeader, v)
		}
		rec.stale = time.Duration(ms) * time.Millisecond
	}
	return rec, nil
}

// do sends req and returns the body of a 2xx answer.
func (d *driver) do(req *http.Request) ([]byte, http.Header, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header, nil
}

// drain discards and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// op is one scheduled open-loop operation: ingest batch b, or a query
// when b < 0.
type op struct {
	due time.Time
	b   int
}

// openLoop sends batches first..first+n-1 at the workload's ingest rate
// plus its query rate, each on its own schedule regardless of
// how the system keeps up. Latency runs from each operation's due time,
// so a stall is charged to every operation it delays; genLateMS records
// how late the scheduler itself handed each operation over.
func (d *driver) openLoop(ctx context.Context, conns, first, n int, dur time.Duration, parent int) (st opStats, genLateMS []float64) {
	ingestIvl := time.Duration(float64(time.Second) * batchSize / float64(d.in.w.rate))
	queryIvl := time.Second / time.Duration(d.in.w.qps)
	nq := int(dur / queryIvl)
	// Sized to every operation of the phase: the scheduler never blocks,
	// whatever backlog the system builds up.
	ops := make(chan op, n+nq)
	per := make([]opStats, conns)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(st *opStats) {
			defer wg.Done()
			for o := range ops {
				if ctx.Err() != nil {
					continue
				}
				d.doOp(ctx, st, o.b, o.due, parent)
			}
		}(&per[c])
	}
	genLateMS = make([]float64, 0, n+nq)
	start := time.Now().Add(5 * time.Millisecond)
	for i, j := 0, 0; (i < n || j < nq) && ctx.Err() == nil; {
		ti := start.Add(time.Duration(i) * ingestIvl)
		tq := start.Add(time.Duration(j) * queryIvl)
		o := op{due: tq, b: -1}
		if i < n && (j >= nq || ti.Before(tq)) {
			o = op{due: ti, b: first + i}
			i++
		} else {
			j++
		}
		if w := time.Until(o.due); w > 0 {
			_ = sleepCtx(ctx, w)
		}
		genLateMS = append(genLateMS, ms(time.Since(o.due)))
		ops <- o
	}
	close(ops)
	wg.Wait()
	for i := range per {
		st.add(&per[i])
	}
	return st, genLateMS
}

// closedLoop sends batches from first on, back to back over conns
// connections, with one query after every queryEvery batches per
// connection, until dur has passed or the pool before limit runs out; a
// system fast enough to empty the pool ends the phase early, and the rate
// is taken over the time it ran.
func (d *driver) closedLoop(ctx context.Context, conns, first, limit int, dur time.Duration, parent int) (st opStats, elapsed time.Duration, err error) {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([]opStats, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(st *opStats) {
			defer wg.Done()
			for n := 1; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				b := int(next.Add(1) - 1)
				if b >= limit {
					return
				}
				d.doOp(ctx, st, b, time.Now(), parent)
				if n%queryEvery == 0 {
					d.doOp(ctx, st, -1, time.Now(), parent)
				}
			}
		}(&per[c])
	}
	wg.Wait()
	elapsed = time.Since(start)
	for i := range per {
		st.add(&per[i])
	}
	return st, elapsed, ctx.Err()
}

// doOp runs one operation (ingest batch b, or a query when b < 0) and
// records its outcome and latency from due.
func (d *driver) doOp(ctx context.Context, st *opStats, b int, due time.Time, parent int) {
	if b >= 0 {
		st.ingests++
		if err := d.ingest(ctx, b, parent); err != nil {
			st.fail(err)
			return
		}
		st.ingestMS = append(st.ingestMS, ms(time.Since(due)))
		st.acked += batchSize
		return
	}
	st.queries++
	rec, err := d.query(ctx, due, parent)
	if err != nil {
		st.fail(err)
		return
	}
	st.queryMS = append(st.queryMS, ms(time.Since(due)))
	st.records = append(st.records, rec)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
