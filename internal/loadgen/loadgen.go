// Package loadgen drives configurable mixed ingest/query traffic at a
// sketchd daemon or sketchgw gateway and records HDR-style latency
// histograms per operation class. Traffic shape: zipfian group selection
// over the engine's grid cells, bursty open-loop arrivals (latency is
// measured from each batch's *scheduled* send time, so a stalled server
// cannot hide queueing delay — the coordinated-omission fix), optional
// windowed stamps with bounded jitter and deliberate late arrivals.
// The chaosproxy subpackage supplies the failure-injection layer.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
)

// Config shapes one load run. Target is required; every other field has
// a usable zero-default (see Run).
type Config struct {
	// Target is the base URL of the daemon or gateway under load
	// (e.g. "http://127.0.0.1:9090").
	Target string
	// Dim is the point dimensionality (default 2).
	Dim int
	// Conns is the number of concurrent worker connections (default 4).
	Conns int
	// Points is the total number of points to ingest (default 10000).
	Points int
	// BatchSize is points per ingest request (default 100).
	BatchSize int
	// QueryEvery issues one GET /query per that many ingest batches,
	// interleaved across the run (default 4; 0 disables queries).
	QueryEvery int
	// K is the sample size requested per query (default 4).
	K int
	// Groups is the number of distinct near-duplicate groups the
	// zipfian generator draws from (default 512).
	Groups int
	// ZipfS is the zipf exponent s > 1 skewing group popularity
	// (default 1.2).
	ZipfS float64
	// Rate is the open-loop target in points per second; 0 runs closed
	// loop (workers send as fast as the server answers, latency is pure
	// service time).
	Rate float64
	// Burst groups that many consecutive batches onto one scheduled
	// instant in open-loop mode, modelling bursty producers (default 1,
	// i.e. evenly paced).
	Burst int
	// Windowed stamps every ingest batch with an X-Sketch-Stamp header
	// for time-window targets.
	Windowed bool
	// StampStep advances the stamp frontier per batch when Windowed
	// (default 1).
	StampStep int64
	// StampJitter bounds the ± noise applied to each batch's stamp when
	// Windowed — keep it below the target's window width or late
	// batches will be expired at arrival (default 0).
	StampJitter int64
	// LateFraction is the probability a Windowed batch is stamped
	// behind the frontier by up to StampJitter, i.e. arrives late but
	// (given a wide-enough window) still live (default 0).
	LateFraction float64
	// Seed makes the traffic reproducible (default 1).
	Seed uint64
	// Client is the HTTP client to use (default: a pooled client with
	// Conns idle connections per host).
	Client *http.Client
}

// Result aggregates one load run.
type Result struct {
	// Ingest summarizes ingest-request latency.
	Ingest HistSnapshot `json:"ingest"`
	// Query summarizes query-request latency.
	Query HistSnapshot `json:"query"`
	// Points is the number of points successfully ingested.
	Points int64 `json:"points"`
	// Queries is the number of queries answered with 200.
	Queries int64 `json:"queries"`
	// IngestErrors counts failed ingest requests (transport error or
	// non-2xx status).
	IngestErrors int64 `json:"ingest_errors"`
	// QueryErrors counts failed query requests.
	QueryErrors int64 `json:"query_errors"`
	// MaxStalenessMS is the largest X-Sketch-Staleness a query answer
	// carried (gateways only; 0 against a single daemon).
	MaxStalenessMS int64 `json:"max_staleness_ms"`
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration `json:"elapsed_ns"`
	// FinalStamp is the last stamp frontier value (Windowed runs only),
	// so callers can reason about the live window after the run.
	FinalStamp int64 `json:"final_stamp,omitempty"`
}

// IngestRate returns achieved points per second.
func (r *Result) IngestRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Points) / r.Elapsed.Seconds()
}

// QueryRate returns achieved queries per second.
func (r *Result) QueryRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// job is one scheduled request: an ingest batch (pts != nil) or a query.
type job struct {
	at    time.Time // scheduled send instant (zero in closed loop)
	pts   []geom.Point
	stamp int64 // X-Sketch-Stamp when windowed, else -1
}

// runner carries the shared state of one Run.
type runner struct {
	cfg    Config
	client *http.Client

	ingest Histogram
	query  Histogram

	points       atomic.Int64
	queries      atomic.Int64
	ingestErrors atomic.Int64
	queryErrors  atomic.Int64
	maxStaleMS   atomic.Int64
}

func (cfg *Config) applyDefaults() {
	if cfg.Dim <= 0 {
		cfg.Dim = 2
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Points <= 0 {
		cfg.Points = 10000
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 100
	}
	if cfg.QueryEvery < 0 {
		cfg.QueryEvery = 0
	} else if cfg.QueryEvery == 0 {
		cfg.QueryEvery = 4
	}
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 512
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 1
	}
	if cfg.StampStep <= 0 {
		cfg.StampStep = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

// groupPoint returns a jittered point in group g's grid cell. Groups are
// laid out on the engine's grid: coordinate j is cell ((g>>(6j)) mod 64)
// scaled by 10 — the same layout the cluster tests use — with ±0.25
// jitter so members of a group are near-duplicates, not identical.
func groupPoint(rng *rand.Rand, g uint64, dim int) geom.Point {
	p := make(geom.Point, dim)
	for j := 0; j < dim; j++ {
		cell := (g >> (6 * uint(j))) % 64
		p[j] = float64(cell)*10 + (rng.Float64()-0.5)*0.5
	}
	return p
}

// Run executes one load run and blocks until all traffic has completed
// or ctx is cancelled (cancellation stops scheduling new requests and
// returns the partial result). The returned error covers setup problems
// only; request failures are counted in the Result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: Config.Target is required")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: cfg.Conns,
			},
		}
	}
	r := &runner{cfg: cfg, client: client}

	jobs := make(chan job, 2*cfg.Conns)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r.do(ctx, j)
			}
		}()
	}

	start := time.Now()
	finalStamp := r.schedule(ctx, jobs)
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Elapsed:        elapsed,
		Ingest:         r.ingest.Snapshot(),
		Query:          r.query.Snapshot(),
		Points:         r.points.Load(),
		Queries:        r.queries.Load(),
		IngestErrors:   r.ingestErrors.Load(),
		QueryErrors:    r.queryErrors.Load(),
		MaxStalenessMS: r.maxStaleMS.Load(),
	}
	if cfg.Windowed {
		res.FinalStamp = finalStamp
	}
	return res, nil
}

// schedule generates the full job stream — zipfian batches, interleaved
// queries, open-loop send times — and feeds the worker channel. Returns
// the final stamp frontier.
func (r *runner) schedule(ctx context.Context, jobs chan<- job) int64 {
	cfg := r.cfg
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x10adc0de))
	// imax is inclusive in NewZipf; groups are 0..Groups-1.
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Groups-1))

	batches := (cfg.Points + cfg.BatchSize - 1) / cfg.BatchSize
	var interval time.Duration
	if cfg.Rate > 0 {
		perBatchSec := float64(cfg.BatchSize) / cfg.Rate
		interval = time.Duration(perBatchSec * float64(cfg.Burst) * float64(time.Second))
	}
	start := time.Now()
	var stamp int64
	remaining := cfg.Points
	for i := 0; i < batches; i++ {
		if ctx.Err() != nil {
			break
		}
		n := cfg.BatchSize
		if n > remaining {
			n = remaining
		}
		remaining -= n
		pts := make([]geom.Point, n)
		for j := range pts {
			pts[j] = groupPoint(rng, zipf.Uint64(), cfg.Dim)
		}
		j := job{pts: pts, stamp: -1}
		if cfg.Windowed {
			stamp += cfg.StampStep
			s := stamp
			if cfg.StampJitter > 0 {
				if cfg.LateFraction > 0 && rng.Float64() < cfg.LateFraction {
					s -= rng.Int64N(cfg.StampJitter + 1) // late, bounded
				} else {
					s += rng.Int64N(cfg.StampJitter + 1)
				}
				if s < 0 {
					s = 0
				}
			}
			j.stamp = s
		}
		if cfg.Rate > 0 {
			// Open loop: batch i of burst-group i/Burst fires at a fixed
			// instant regardless of how the server is keeping up.
			j.at = start.Add(time.Duration(i/cfg.Burst) * interval)
			r.pace(ctx, j.at)
		}
		select {
		case jobs <- j:
		case <-ctx.Done():
			return stamp
		}
		if cfg.QueryEvery > 0 && (i+1)%cfg.QueryEvery == 0 {
			q := job{stamp: -1}
			if cfg.Rate > 0 {
				q.at = j.at
			}
			select {
			case jobs <- q:
			case <-ctx.Done():
				return stamp
			}
		}
	}
	return stamp
}

// pace sleeps until just before the scheduled instant so the channel
// feeds jobs in schedule order without racing far ahead of the clock.
func (r *runner) pace(ctx context.Context, at time.Time) {
	d := time.Until(at)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// do executes one job and records its latency. In open-loop mode the
// latency is measured from the scheduled instant, so time spent queued
// behind a slow server counts against it (no coordinated omission).
func (r *runner) do(ctx context.Context, j job) {
	from := j.at
	if from.IsZero() {
		from = time.Now()
	}
	if j.pts != nil {
		ok := r.doIngest(ctx, j)
		r.ingest.Record(time.Since(from))
		if ok {
			r.points.Add(int64(len(j.pts)))
		} else {
			r.ingestErrors.Add(1)
		}
		return
	}
	ok := r.doQuery(ctx)
	r.query.Record(time.Since(from))
	if ok {
		r.queries.Add(1)
	} else {
		r.queryErrors.Add(1)
	}
}

func (r *runner) doIngest(ctx context.Context, j job) bool {
	body := pointio.AppendBinaryBatch(nil, j.pts)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.cfg.Target+"/ingest", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", pointio.BinaryContentType)
	if j.stamp >= 0 {
		req.Header.Set(server.StampHeader, strconv.FormatInt(j.stamp, 10))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode/100 == 2
}

func (r *runner) doQuery(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.cfg.Target+"/query?k="+strconv.Itoa(r.cfg.K), nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if v := resp.Header.Get("X-Sketch-Staleness"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
			for {
				cur := r.maxStaleMS.Load()
				if ms <= cur || r.maxStaleMS.CompareAndSwap(cur, ms) {
					break
				}
			}
		}
	}
	return true
}

// drain consumes and closes a response body so the connection returns to
// the client's pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
