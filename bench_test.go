// Benchmark harness regenerating the paper's evaluation (one benchmark per
// figure) plus the ablations called out in DESIGN.md. Run:
//
//	go test -bench=. -benchmem
//
// Figure mapping:
//
//	BenchmarkProcess/*       → Figure 13 (pTime, per-item processing time)
//	BenchmarkSpace/*         → Figure 14 (pSpace; reported as peak_words)
//	BenchmarkDistribution/*  → Figures 5–12 & 15 (stdDevNm / maxDevNm
//	                           reported as custom metrics; paper-scale run
//	                           counts need -benchtime)
//	BenchmarkAdj/*           → Section 6.2 ablation (pruned DFS vs naive)
//	BenchmarkHash/*          → k-wise vs PRF hashing ablation
//	BenchmarkWindowProcess/* → sliding-window throughput (extension)
//	BenchmarkF0/*            → Section 5 estimator (rel_err reported)
//
// Absolute numbers depend on hardware; EXPERIMENTS.md records the shape
// comparison against the paper.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/f0"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
	"repro/internal/metrics"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/internal/window"
	"repro/pkg/sketch"
)

func benchOptions(inst dataset.Instance, seed uint64) core.Options {
	return core.Options{
		Alpha:       inst.Alpha,
		Dim:         inst.Spec.Base.Dim(),
		StreamBound: len(inst.Points) + 1,
		Seed:        seed,
		HighDim:     true,
	}
}

// BenchmarkProcess measures per-item processing time of Algorithm 1 on
// each of the paper's eight datasets (Figure 13).
func BenchmarkProcess(b *testing.B) {
	for _, spec := range dataset.AllSpecs() {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			inst := dataset.Build(spec, 1)
			s, err := core.NewSampler(benchOptions(inst, 2))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Process(inst.Points[i%len(inst.Points)])
			}
		})
	}
}

// BenchmarkSpace runs one full stream scan per iteration and reports the
// peak sketch size in words (Figure 14).
func BenchmarkSpace(b *testing.B) {
	for _, spec := range dataset.AllSpecs() {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			inst := dataset.Build(spec, 1)
			var peak float64
			sm := hash.NewSplitMix(3)
			for i := 0; i < b.N; i++ {
				s, err := core.NewSampler(benchOptions(inst, sm.Next()))
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range inst.Points {
					s.Process(p)
				}
				peak += float64(s.PeakSpaceWords())
			}
			b.ReportMetric(peak/float64(b.N), "peak_words")
			b.ReportMetric(0, "ns/op") // wall time is not the point here
		})
	}
}

// BenchmarkDistribution performs one full scan+query per iteration and
// reports the empirical deviation statistics across all iterations
// (Figures 5–12 and 15). Increase -benchtime (e.g. -benchtime=200000x)
// to approach the paper's 200k–500k run counts.
func BenchmarkDistribution(b *testing.B) {
	for _, spec := range dataset.AllSpecs() {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			inst := dataset.Build(spec, 1)
			ixKeys := make(map[uint64]int, len(inst.Points))
			for i, p := range inst.Points {
				ixKeys[baseline.PointKey(p)] = inst.Groups[i]
			}
			counts := metrics.NewCounts(inst.NumGroups)
			sm := hash.NewSplitMix(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.NewSampler(benchOptions(inst, sm.Next()))
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range inst.Points {
					s.Process(p)
				}
				q, err := s.Query()
				if err != nil {
					continue
				}
				g, ok := ixKeys[baseline.PointKey(q)]
				if !ok {
					b.Fatal("sample is not a stream point")
				}
				counts.Observe(g)
			}
			b.StopTimer()
			if counts.Total() > 0 {
				b.ReportMetric(counts.StdDevNm(), "stdDevNm")
				b.ReportMetric(counts.MaxDevNm(), "maxDevNm")
			}
		})
	}
}

// BenchmarkAdj compares the paper's pruned DFS (Algorithms 6–7) against
// the naive (2K+1)^d enumeration across dimensions (Section 6.2).
func BenchmarkAdj(b *testing.B) {
	for _, d := range []int{2, 5, 8, 12, 20} {
		d := d
		g := grid.New(d, float64(d), uint64(d)) // side d·α with α=1
		pts := make([]geom.Point, 64)
		sm := hash.NewSplitMix(uint64(d) * 7)
		for i := range pts {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = float64(sm.Next()%1000) / 25
			}
			pts[i] = p
		}
		b.Run(fmt.Sprintf("dfs/d=%d", d), func(b *testing.B) {
			var adj []grid.CellKey
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				adj = g.AppendAdj(adj[:0], pts[i%len(pts)], 1)
			}
		})
		// The naive enumeration is exponential in d; skip it where it
		// would take minutes per op.
		if d <= 12 {
			b.Run(fmt.Sprintf("naive/d=%d", d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g.AdjNaive(pts[i%len(pts)], 1)
				}
			})
		}
	}
}

// BenchmarkHash compares the Θ(log m)-wise polynomial hash with the PRF,
// at the independences in use: k = 6 is an f0 estimator's copies
// (StreamBound 4, 2·log2 4 + 2), below the four-lane cut-off of
// KWise.Hash; k = 42 is -m 2^20; k = 48 is bench/'s -m 8388608.
func BenchmarkHash(b *testing.B) {
	for _, k := range []int{6, 42, 48} {
		kw := hash.NewKWise(k, 1)
		b.Run(fmt.Sprintf("kwise%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hashSink ^= kw.Hash(uint64(i))
			}
		})
	}
	prf := hash.NewPRF(1)
	b.Run("prf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashSink ^= prf.Hash(uint64(i))
		}
	})
}

// hashSink keeps BenchmarkHash's calls from being optimized away.
var hashSink uint64

// BenchmarkWindowProcess measures per-item cost of the hierarchical
// sliding-window sampler (Theorem 2.7's O(log w log m) amortized time).
func BenchmarkWindowProcess(b *testing.B) {
	for _, w := range []int64{256, 4096, 65536} {
		w := w
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			inst := dataset.Build(dataset.Spec{Base: dataset.Seeds, Kind: dataset.DupUniform}, 1)
			opts := benchOptions(inst, 7)
			ws, err := core.NewWindowSampler(opts, window.Window{Kind: window.Sequence, W: w})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Process(inst.Points[i%len(inst.Points)])
			}
		})
	}
}

// BenchmarkF0 measures the Section 5 infinite-window estimator: wall time
// per full stream and the relative error as a metric.
func BenchmarkF0(b *testing.B) {
	for _, spec := range []dataset.Spec{
		{Base: dataset.Seeds, Kind: dataset.DupUniform},
		{Base: dataset.Seeds, Kind: dataset.DupPowerLaw},
	} {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			inst := dataset.Build(spec, 1)
			var relSum float64
			sm := hash.NewSplitMix(9)
			for i := 0; i < b.N; i++ {
				m, err := f0.NewMedian(benchOptions(inst, sm.Next()), 0.25, 0, 5)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range inst.Points {
					m.Process(p)
				}
				est, err := m.Estimate()
				if err != nil {
					b.Fatal(err)
				}
				relSum += metrics.RelErr(est, float64(inst.NumGroups))
			}
			b.ReportMetric(relSum/float64(b.N), "rel_err")
		})
	}
}

// BenchmarkMerge measures combining two loaded sketches (the distributed
// setting); BenchmarkSerialize the checkpoint round-trip.
func BenchmarkMerge(b *testing.B) {
	inst := dataset.Build(dataset.Spec{Base: dataset.Seeds, Kind: dataset.DupUniform}, 1)
	opts := benchOptions(inst, 13)
	mk := func(from, stride int) *core.Sampler {
		s, err := core.NewSampler(opts)
		if err != nil {
			b.Fatal(err)
		}
		for i := from; i < len(inst.Points); i += stride {
			s.Process(inst.Points[i])
		}
		return s
	}
	x, y := mk(0, 2), mk(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	inst := dataset.Build(dataset.Spec{Base: dataset.Seeds, Kind: dataset.DupUniform}, 1)
	s, err := core.NewSampler(benchOptions(inst, 17))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range inst.Points {
		s.Process(p)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(blob)), "sketch_bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.UnmarshalSampler(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineProcess measures sharded ingestion throughput of the
// streaming engine across shard counts (ns/op is per point). The
// workload has a high distinct-group rate, so per-point sketch work
// dominates the router. The sweep committed in BENCH_engine.json was
// measured under GOMAXPROCS=1 on a 2-CPU host: 387k pts/s at 1 shard,
// 244k at 2, 281k at 4 and 176k at 8. Those rows time 25 points each,
// mostly per-batch engine overhead, and repeat runs of the same binary
// spread 1.9–6.6 µs per point; at -benchtime 200000x one shard ingests
// 1.3–1.4M pts/s on that host. Multi-core scaling has not been measured.
func BenchmarkEngineProcess(b *testing.B) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, StreamBound: 1 << 21, HighDim: true}
	benchEngine(b, []int{1, 2, 4, 8}, uniformPoints(41, 43, 2), opts, engine.NewSamplerEngine)
}

// BenchmarkF0EngineProcess is the ingest path of an f0 daemon at
// sketchd's defaults: every point goes through the 9 infinite-window
// sampler copies of an ε = 0.25 estimator. The points are 3-dimensional,
// like bench/'s daemon-f0 workload, and uniform, so nearly every point is
// a new group.
func BenchmarkF0EngineProcess(b *testing.B) {
	opts := core.Options{Alpha: 1, Dim: 3, Seed: 9, StreamBound: 1 << 23, HighDim: true}
	benchEngine(b, []int{1, 2}, uniformPoints(47, 53, 3), opts, func(opts core.Options, cfg engine.Config) (*engine.Engine, error) {
		return engine.NewF0Engine(opts, 0.25, 9, cfg)
	})
}

// uniformPoints returns 2^16 points drawn uniformly from [0, 4096)^dim.
func uniformPoints(seed1, seed2 uint64, dim int) []geom.Point {
	rng := rand.New(rand.NewPCG(seed1, seed2))
	pts := make([]geom.Point, 1<<16)
	for i := range pts {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = rng.Float64() * 4096
		}
		pts[i] = p
	}
	return pts
}

// benchEngine feeds pts in unstamped chunks to the engine newEngine
// builds from opts, once per shard count; ns/op is per point.
func benchEngine(b *testing.B, shardCounts []int, pts []geom.Point, opts core.Options, newEngine func(core.Options, engine.Config) (*engine.Engine, error)) {
	const chunk = 512
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng, err := newEngine(opts, engine.Config{Shards: shards, BatchSize: chunk})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += chunk {
				lo := n % (len(pts) - chunk)
				hi := min(lo+chunk, lo+(b.N-n))
				eng.ProcessBatch(pts[lo:hi])
			}
			eng.Drain()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pts/s")
			eng.Close()
		})
	}
}

// BenchmarkWindowEngineProcess measures stamped ingestion into the
// sharded time-window engine across shard counts: the sliding-window
// counterpart of BenchmarkEngineProcess (stamps advance once per chunk,
// so expiry churn is part of the measured path).
func BenchmarkWindowEngineProcess(b *testing.B) {
	win := window.Window{Kind: window.Time, W: 1 << 14}
	benchStampedEngine(b, []int{1, 2, 4, 8}, func(opts core.Options, cfg engine.Config) (*engine.Engine, error) {
		return engine.NewWindowSamplerEngine(opts, win, cfg)
	})
}

// BenchmarkWindowF0EngineProcess is BenchmarkWindowEngineProcess for the
// sliding-window F0 estimator at sketchd's default ε = 0.25: every point
// goes through ⌈2/ε²⌉ = 32 window-sampler copies, which makes it the
// costliest ingest path per point.
func BenchmarkWindowF0EngineProcess(b *testing.B) {
	win := window.Window{Kind: window.Time, W: 1 << 14}
	benchStampedEngine(b, []int{1, 2}, func(opts core.Options, cfg engine.Config) (*engine.Engine, error) {
		return engine.NewWindowF0Engine(opts, win, 0.25, cfg)
	})
}

// benchStampedEngine feeds 2^16 uniform points in stamped chunks to the
// engine newEngine builds, once per shard count; ns/op is per point.
func benchStampedEngine(b *testing.B, shardCounts []int, newEngine func(core.Options, engine.Config) (*engine.Engine, error)) {
	const chunk = 512
	pts := uniformPoints(47, 53, 2)
	stamps := make([]int64, len(pts))
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, StreamBound: 1 << 21, HighDim: true}
			eng, err := newEngine(opts, engine.Config{Shards: shards, BatchSize: chunk})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var now int64
			for n := 0; n < b.N; n += chunk {
				lo := n % (len(pts) - chunk)
				hi := min(lo+chunk, lo+(b.N-n))
				now++
				for i := lo; i < hi; i++ {
					stamps[i] = now
				}
				eng.ProcessStampedBatch(pts[lo:hi], stamps[lo:hi])
			}
			eng.Drain()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pts/s")
			eng.Close()
		})
	}
}

// benchGatewayData is the shared workload of the gateway benchmarks:
// 2^14 uniform points over one option set.
func benchGatewayData() (core.Options, []geom.Point) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, StreamBound: 1 << 20, Kappa: 128, HighDim: true}
	rng := rand.New(rand.NewPCG(7, 11))
	pts := make([]geom.Point, 1<<14)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 1024, rng.Float64() * 1024}
	}
	return opts, pts
}

// benchGatewayCluster spins up an in-process cluster of the given peer
// count behind a gateway, seeds it with the benchGatewayData points, and
// returns the gateway URL.
func benchGatewayCluster(b *testing.B, peers int) string {
	opts, pts := benchGatewayData()
	router, err := engine.NewRouterFromOptions(opts)
	if err != nil {
		b.Fatal(err)
	}
	urls := make([]string, peers)
	for i := 0; i < peers; i++ {
		eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng, Dim: opts.Dim})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		urls[i] = ts.URL
		b.Cleanup(func() { ts.Close(); eng.Close() })
	}
	gw, err := cluster.New(cluster.Config{Peers: urls, Router: router, Dim: opts.Dim})
	if err != nil {
		b.Fatal(err)
	}
	gwts := httptest.NewServer(gw)
	b.Cleanup(func() { gwts.Close(); gw.Close() })
	resp, err := http.Post(gwts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("seed ingest status %d", resp.StatusCode)
	}
	return gwts.URL
}

// benchWarmGateway issues untimed queries until the gateway has reported
// staleness 0 for 200ms straight — every watcher connected and the seed
// ingest's pushes folded in — so the timed loop measures the quiescent
// serve-stale fast path. One clean sample is not enough: the header
// truncates to whole milliseconds, and a peer's push can trail its
// ingest acknowledgement, so a late push (and the background round it
// starts) could otherwise land inside the timed loop.
func benchWarmGateway(b *testing.B, url string) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	clean := 0
	for {
		resp, err := http.Get(url + "/query")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warm query status %d", resp.StatusCode)
		}
		if resp.Header.Get(cluster.StalenessHeader) != "0" {
			clean = 0
		} else if clean++; clean >= 20 {
			return
		}
		if time.Now().After(deadline) {
			b.Fatal("gateway did not settle")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// benchGatewayQueries issues b.N sequential /query rounds and reports
// queries/s plus the p50/p99 per-round latency (custom metrics, so the
// tail is visible next to the mean ns/op).
func benchGatewayQueries(b *testing.B, url string) {
	b.Helper()
	durs := make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		resp, err := http.Get(url + "/query")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("query status %d", resp.StatusCode)
		}
		durs = append(durs, time.Since(start))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	slices.Sort(durs)
	b.ReportMetric(float64(durs[len(durs)/2]), "p50-ns")
	b.ReportMetric(float64(durs[(len(durs)-1)*99/100]), "p99-ns")
}

// BenchmarkGatewayQueryWarm is the warm steady-state serving path across
// fan-outs: the gateway serves the cached fold with zero peer round
// trips on a quiescent cluster, so its latency should stay flat from 1
// to 8 peers. The push/ level of the sub-benchmark names keeps them
// comparable with earlier baselines.
func BenchmarkGatewayQueryWarm(b *testing.B) {
	for _, peers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("push/peers=%d", peers), func(b *testing.B) {
			url := benchGatewayCluster(b, peers)
			benchWarmGateway(b, url)
			b.ReportAllocs()
			b.ResetTimer()
			benchGatewayQueries(b, url)
		})
	}
}

// BenchmarkFederatedFold is the background refresher's re-fold after
// every peer's epoch moved, without HTTP: sketch.Deserialize of each of
// three peers' /sketch blobs, then two Merges into the first.
// The peers hold the benchGatewayData points, routed as the gateway
// routes them, so the blobs are the ones the warm benchmarks fold.
func BenchmarkFederatedFold(b *testing.B) {
	const peers = 3
	opts, pts := benchGatewayData()
	router, err := engine.NewRouterFromOptions(opts)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := engine.NewPlacement(peers, 1)
	if err != nil {
		b.Fatal(err)
	}
	buckets := make([][]geom.Point, peers)
	for _, p := range pts {
		i := pl.Primary(router.Route(p))
		buckets[i] = append(buckets[i], p)
	}
	engs := make([]*engine.Engine, peers)
	for i, bucket := range buckets {
		if engs[i], err = engine.NewSamplerEngine(opts, engine.Config{Shards: 2}); err != nil {
			b.Fatal(err)
		}
		engs[i].ProcessBatch(bucket)
	}
	benchFold(b, engs)
}

// benchFold closes the peers' engines and times the background
// refresher's fold over their /sketch blobs, as the gateway folds them:
// sketch.Deserialize of every blob, then a Merge of every other peer into
// the first decoded sketch.
func benchFold(b *testing.B, peers []*engine.Engine) {
	blobs := make([][]byte, len(peers))
	for i, eng := range peers {
		err := eng.WithSnapshot(func(s sketch.Sketch) (err error) {
			blobs[i], err = s.Serialize()
			return err
		})
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	sks := make([]sketch.Sketch, len(blobs))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var err error
		for i, blob := range blobs {
			if sks[i], err = sketch.Deserialize(blob); err != nil {
				b.Fatal(err)
			}
		}
		merged := sks[0].(sketch.Mergeable)
		for _, sk := range sks[1:] {
			if err := merged.Merge(sk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWindowFold is BenchmarkFederatedFold for time-window peers:
// the gateway's refresh fold over three 2-shard window daemons fed a
// stream shaped like bench/'s cluster-window workload (512 Zipf groups,
// a 5000-stamp window, 200-point batches stamped 10 apart with ±200
// jitter, 10% of them 1000–3000 stamps late).
func BenchmarkWindowFold(b *testing.B) {
	const (
		peers   = 3
		batches = 600
		batch   = 200
	)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 1, StreamBound: 1 << 23, HighDim: true}
	win := window.Window{Kind: window.Time, W: 5000}
	router, err := engine.NewRouterFromOptions(opts)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := engine.NewPlacement(peers, 1)
	if err != nil {
		b.Fatal(err)
	}
	engs := make([]*engine.Engine, peers)
	for i := range engs {
		if engs[i], err = engine.NewWindowSamplerEngine(opts, win, engine.Config{Shards: 2}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(5, 7))
	zipf := rand.NewZipf(rng, 1.2, 1, 511)
	for n := range batches {
		stamp := 1_000_000 + int64(n)*10 + rng.Int64N(401) - 200
		if rng.Float64() < 0.10 {
			stamp -= 1000 + rng.Int64N(2001)
		}
		buckets := make([][]geom.Point, peers)
		for range batch {
			g := int(zipf.Uint64())
			p := geom.Point{float64(g%64)*10 + (2*rng.Float64()-1)/4, float64(g/64)*10 + (2*rng.Float64()-1)/4}
			i := pl.Primary(router.Route(p))
			buckets[i] = append(buckets[i], p)
		}
		for i, bucket := range buckets {
			engs[i].ProcessStampedBatch(bucket, slices.Repeat([]int64{stamp}, len(bucket)))
		}
	}
	benchFold(b, engs)
}

// BenchmarkSketchMarshal measures the binary wire format on a loaded
// time-window sampler — the sketch family with the richest wire state
// (levels, expiry stamps, reservoir skylines). blob_bytes reports the
// encoded size.
func BenchmarkSketchMarshal(b *testing.B) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, StreamBound: 1 << 20, Kappa: 64, HighDim: true, RandomRepresentative: true}
	rng := rand.New(rand.NewPCG(19, 23))
	ws, err := core.NewWindowSampler(opts, window.Window{Kind: window.Time, W: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<15; i++ {
		ws.ProcessAt(geom.Point{rng.Float64() * 2048, rng.Float64() * 2048}, int64(i/64+1))
	}
	binBlob, err := ws.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary/marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(binBlob)), "blob_bytes")
		for i := 0; i < b.N; i++ {
			if _, err := ws.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary/unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.UnmarshalWindowSampler(binBlob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProcessBatch measures the batched single-sampler ingestion
// path (duplicate cache + entry pooling) against the same stream fed
// point by point via BenchmarkProcess.
func BenchmarkProcessBatch(b *testing.B) {
	for _, spec := range []dataset.Spec{
		{Base: dataset.Seeds, Kind: dataset.DupUniform},
		{Base: dataset.Rand5, Kind: dataset.DupPowerLaw},
	} {
		spec := spec
		b.Run(spec.Name(), func(b *testing.B) {
			inst := dataset.Build(spec, 1)
			s, err := core.NewSampler(benchOptions(inst, 2))
			if err != nil {
				b.Fatal(err)
			}
			const chunk = 256
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += chunk {
				lo := n % (len(inst.Points) - chunk)
				hi := min(lo+chunk, lo+(b.N-n))
				s.ProcessBatch(inst.Points[lo:hi])
			}
		})
	}
}

// BenchmarkQuery measures query latency on a loaded sketch: k=1 is one
// Query, k=4 one QueryK(4) draw without replacement.
func BenchmarkQuery(b *testing.B) {
	inst := dataset.Build(dataset.Spec{Base: dataset.Rand5, Kind: dataset.DupUniform}, 1)
	s, err := core.NewSampler(benchOptions(inst, 11))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range inst.Points {
		s.Process(p)
	}
	b.Run("k=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("k=4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.QueryK(4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
