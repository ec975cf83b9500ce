package main

// One workload run: an end-to-end pass on an untraced fleet and, with
// -trace 1, a traced pass plus the in-process layer replays.

import (
	"context"
	"fmt"
	"math"
	"time"
)

// setupReps is how many times the end-to-end pass sets a fleet up; the
// median is setup_s and the last fleet serves the measured phases.
const setupReps = 15

// settleTimeout bounds set-up and the final drain.
const settleTimeout = 30 * time.Second

// lateLimitMS is how late the open-loop scheduler may run (p99) before a
// run's latencies stop meaning what they say.
const lateLimitMS = 10

type config struct {
	bin     string
	seed    uint64
	seconds float64
	traced  bool
	conns   int
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type inputProps struct {
	DistinctGroups int     `json:"distinct_groups"`
	DupShare       float64 `json:"dup_share"`
	LateShare      float64 `json:"late_share"`
	Points         int     `json:"points"`
}

// result is one workload's entry in the results file.
type result struct {
	Workload  string     `json:"workload"`
	Inputs    inputProps `json:"inputs"`
	E2E       metrics    `json:"e2e"`
	Layers    metrics    `json:"layers,omitempty"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Errors    []string   `json:"errors,omitempty"`
}

// pass is one fleet taken through set-up, both measured phases and the
// final drain.
type pass struct {
	setupS        []float64
	ops           opStats // both phases
	open, closed  opStats
	closedElapsed time.Duration
	genLateMS     []float64
	sysCPU        []float64 // per process (daemons, then the gateway), over the closed loop
	benchCPU      float64   // the generator's own, over the closed loop
	rssMB         []float64
	sent          int
	acks          []ackPoint
	final         queryRecord
	before, after []map[string]float64 // traced: every process's /metrics around the phases
}

// setUp starts a fleet and waits until it serves: every /healthz answers
// 200, batch 0 is ingested, and a query answers 200 from a fold with
// staleness 0.
func setUp(ctx context.Context, cfg config, in *inputs, traced bool) (*fleet, *driver, error) {
	f, err := startFleet(cfg.bin, in.w, traced)
	if err != nil {
		return nil, nil, err
	}
	d := &driver{in: in, client: newClient(cfg.conns), base: f.front.url}
	err = f.waitHealthy(ctx, d.client)
	if err == nil {
		err = d.ingest(ctx, 0, -1)
	}
	if err == nil {
		_, err = d.settle(ctx)
	}
	if err != nil {
		f.stop()
		return nil, nil, fmt.Errorf("setting up %s: %w", in.w.name, err)
	}
	return f, d, nil
}

// settle polls /query until it answers 200 from a fold with staleness 0
// (a daemon reports none: its answers always cover every acked batch).
func (d *driver) settle(ctx context.Context) (queryRecord, error) {
	deadline := time.Now().Add(settleTimeout)
	for {
		rec, err := d.query(ctx, time.Now(), -1)
		if err == nil && rec.stale == 0 {
			return rec, nil
		}
		if err == nil {
			err = fmt.Errorf("fold %v stale", rec.stale)
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("not settled after %v: %w", settleTimeout, err)
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return rec, err
		}
	}
}

// runPass sets up a fleet reps times, keeps the last one, and drives the
// open-loop phase, the closed-loop phase and the final drain through it,
// secs seconds in all.
func runPass(ctx context.Context, cfg config, in *inputs, secs float64, traced bool, reps int, spans *spanLog, parent int) (*pass, error) {
	p := &pass{}
	var (
		f   *fleet
		d   *driver
		err error
	)
	for i := 0; i < reps; i++ {
		sp := spans.begin("setup", parent)
		t0 := time.Now()
		f, d, err = setUp(ctx, cfg, in, traced)
		spans.end(sp)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if i < reps-1 {
			f.stop()
			d.client.CloseIdleConnections()
		}
	}
	defer d.client.CloseIdleConnections()
	defer f.stop()
	d.spans = spans
	if traced {
		if p.before, err = f.scrapeAll(ctx, d.client); err != nil {
			return nil, err
		}
	}
	openS, closedS := phases(secs)
	sp := spans.begin("open_loop", parent)
	p.open, p.genLateMS = d.openLoop(ctx, cfg.conns, 1, in.nOpen, seconds(openS), sp)
	spans.end(sp)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cpu0, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	bench0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	sp = spans.begin("closed_loop", parent)
	p.closed, p.closedElapsed, err = d.closedLoop(ctx, cfg.conns, 1+in.nOpen, in.batches(), seconds(closedS), sp)
	spans.end(sp)
	if err != nil {
		return nil, err
	}
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	bench1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	p.sysCPU = make([]float64, len(cpu0))
	for i := range cpu0 {
		p.sysCPU[i] = cpu1[i] - cpu0[i]
	}
	p.benchCPU = bench1 - bench0

	sp = spans.begin("final", parent)
	p.final, err = d.settle(ctx)
	spans.end(sp)
	p.ops.add(&p.open)
	p.ops.add(&p.closed)
	p.ops.queries++
	if err != nil {
		p.ops.fail(fmt.Errorf("final query: %w", err))
	} else {
		p.ops.records = append(p.ops.records, p.final)
	}
	if traced {
		if p.after, err = f.scrapeAll(ctx, d.client); err != nil {
			return nil, err
		}
	}
	if p.rssMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}
	p.sent = int(d.sent.Load())
	p.acks = d.acks
	return p, nil
}

func (p *pass) ingestRate() float64 { return float64(p.closed.acked) / p.closedElapsed.Seconds() }

// check verifies every answer of the pass against the stream and returns
// the failures; the final f0 estimate's relative error is returned for
// f0 workloads (NaN otherwise).
func (p *pass) check(in *inputs, c *checker) (failures []error, f0RelErr float64) {
	w := in.w
	for _, rec := range p.ops.records {
		if w.sketch == "l0" && len(rec.samples) == 0 {
			failures = append(failures, fmt.Errorf("l0 answer without a sample"))
			continue
		}
		edge := int64(math.MinInt64)
		if w.window > 0 {
			edge = windowEdge(p.acks, rec.due, rec.stale, w.window)
		}
		for _, s := range rec.samples {
			if err := c.checkSample(s, rec.sent, edge); err != nil {
				failures = append(failures, err)
				break
			}
		}
	}
	f0RelErr = math.NaN()
	if w.sketch == "f0" && p.final.sent > 0 {
		exact, _, _ := in.props(p.final.sent)
		var err error
		if f0RelErr, err = checkF0(p.final.estimate, exact); err != nil {
			failures = append(failures, err)
		}
	}
	return failures, f0RelErr
}

// runWorkload runs one workload and assembles its result. An untraced
// run is one end-to-end pass of cfg.seconds; a traced run splits
// cfg.seconds between an end-to-end pass and a traced pass over the same
// inputs, then replays the layers.
func runWorkload(ctx context.Context, cfg config, w workload, spans *spanLog) (*result, error) {
	secs := cfg.seconds
	if cfg.traced {
		secs /= 2
	}
	in := generate(w, cfg.seed, secs)
	c := newChecker(in)
	p, err := runPass(ctx, cfg, in, secs, false, setupReps, nil, -1)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, E2E: metrics{}}
	failures, f0RelErr := p.check(in, c)
	res.Attempted = p.ops.ingests + p.ops.queries
	res.Failed = p.ops.failed + len(failures)
	res.Errors = append(res.Errors, p.ops.errs...)

	distinct, dup, late := in.props(p.sent)
	res.Inputs = inputProps{DistinctGroups: distinct, DupShare: dup, LateShare: late, Points: p.sent * batchSize}

	e := res.E2E
	e.set("setup_s", median(p.setupS), "s", len(p.setupS))
	e.set("cpu_cost_ratio", sum(p.sysCPU)/p.benchCPU, "ratio", len(p.sysCPU)+1)
	e.set("rss_peak_mb", sum(p.rssMB), "MiB", len(p.rssMB))
	e.set("ingest_pts_per_s", p.ingestRate(), "pts/s", len(p.closed.ingestMS))
	e.set("cpu_s_per_mpts", sum(p.sysCPU)/(float64(p.closed.acked)/1e6), "s", len(p.sysCPU))
	ingestMS, queryMS := p.open.ingestMS, p.open.queryMS
	e.set("ingest_p50_ms", percentile(ingestMS, 0.50), "ms", len(ingestMS))
	e.set("ingest_p99_ms", percentile(ingestMS, 0.99), "ms", len(ingestMS))
	e.set("query_p50_ms", percentile(queryMS, 0.50), "ms", len(queryMS))
	e.set("query_p99_ms", percentile(queryMS, 0.99), "ms", len(queryMS))
	if w.cluster() {
		stale := make([]float64, len(p.ops.records))
		for i, r := range p.ops.records {
			stale[i] = ms(r.stale)
		}
		e.set("staleness_mean_ms", mean(stale), "ms", len(stale))
	}
	if !math.IsNaN(f0RelErr) {
		e.set("f0_rel_err", f0RelErr, "ratio", 1)
	}
	genLate := percentile(p.genLateMS, 0.99)

	if cfg.traced {
		root := spans.begin("workload "+w.name, -1)
		tp, err := runPass(ctx, cfg, in, secs, true, 1, spans, root)
		if err != nil {
			return nil, err
		}
		tFailures, _ := tp.check(in, c)
		failures = append(failures, tFailures...)
		res.Attempted += tp.ops.ingests + tp.ops.queries
		res.Failed += tp.ops.failed + len(tFailures)
		res.Errors = append(res.Errors, tp.ops.errs...)

		l := metrics{}
		scrapedLayers(w, tp.before, tp.after, l)
		if err := replayLayers(in, tp.sent, spans, root, l); err != nil {
			return nil, err
		}
		spans.end(root)
		l.set("proc.daemons_cpu_s", sum(p.sysCPU[:w.peers]), "s", w.peers)
		l.set("proc.daemons_rss_mb", sum(p.rssMB[:w.peers]), "MiB", w.peers)
		if w.cluster() {
			l.set("proc.gateway_cpu_s", p.sysCPU[w.peers], "s", 1)
			l.set("proc.gateway_rss_mb", p.rssMB[w.peers], "MiB", 1)
		}
		l.set("proc.bench_cpu_s", p.benchCPU, "s", 1)
		l.set("bench.gen_late_p99_ms", genLate, "ms", len(p.genLateMS))
		l.set("bench.trace_overhead", p.ingestRate()/tp.ingestRate()-1, "ratio", 2)
		// Throughput and latency spread more between runs on a shared host
		// than any bound BENCHMARK.json may set, so they are reported with
		// the layers rather than gated (README.md, "Noise").
		for _, n := range ungated {
			if m, ok := e[n]; ok {
				l[n] = m
			}
		}
		res.Layers = l
	}
	e.set("error_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	for _, f := range failures {
		if len(res.Errors) < 2*maxErrMsgs {
			res.Errors = append(res.Errors, f.Error())
		}
	}
	res.Correct = res.Failed == 0
	if genLate > lateLimitMS {
		res.Errors = append(res.Errors, fmt.Sprintf("open-loop generator ran %.1f ms late at p99 (limit %d ms): latencies of this run are not comparable", genLate, lateLimitMS))
	}
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
