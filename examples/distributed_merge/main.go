// Distributed merge: sketching shards independently and merging.
//
// Four ingestion sites each see a shard of a noisy event stream (the
// distributed-streams setting the paper's Related Work attributes to
// Chung–Tirthapura [12]). Each site runs the robust ℓ0-sampler locally
// behind the unified sketch interface; the coordinator merges the four
// sketches — a few kilobytes each, shipped with Serialize — and samples
// distinct events from the union without ever seeing the raw streams.
//
// The example also demonstrates checkpoint/restore (site 3 "crashes"
// mid-shard and resumes from its serialized sketch) and finishes with the
// in-process equivalent: the sharded streaming engine, which runs the
// same shard-sketch-merge pipeline across worker goroutines behind one
// ProcessBatch/Query facade.
//
// Run with: go run ./examples/distributed_merge
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/pkg/sketch"
)

const (
	numEvents = 250 // distinct events
	dim       = 8
	alpha     = 0.5
)

func main() {
	rng := rand.New(rand.NewPCG(77, 7))

	// Distinct events, far apart; each occurrence is a near-duplicate.
	events := make([]geom.Point, numEvents)
	for i := range events {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = rng.Float64() * 50
		}
		events[i] = p
	}
	occurrence := func(id int) geom.Point {
		p := events[id].Clone()
		for j := range p {
			p[j] += (rng.Float64() - 0.5) * alpha / 4
		}
		return p
	}

	// A shared configuration: merging requires identical options (the
	// sketches must agree on the grid and hash function).
	opts := core.Options{Alpha: alpha, Dim: dim, Seed: 2024, HighDim: true}

	// Four sites, each seeing 5000 occurrences of a site-biased subset.
	sites := make([]*sketch.L0, 4)
	for i := range sites {
		s, err := sketch.NewL0(opts)
		if err != nil {
			log.Fatal(err)
		}
		sites[i] = s
	}
	var allOccurrences []geom.Point
	for site := 0; site < 4; site++ {
		for k := 0; k < 5000; k++ {
			// Site i mostly sees events congruent to i mod 4, plus spillover.
			id := rng.IntN(numEvents)
			if rng.Float64() < 0.8 {
				id = (id/4)*4 + site
				if id >= numEvents {
					id -= 4
				}
			}
			p := occurrence(id)
			allOccurrences = append(allOccurrences, p)
			sites[site].Process(p)

			// Site 3 crashes at its midpoint and resumes from checkpoint.
			if site == 3 && k == 2500 {
				blob, err := sites[3].Serialize()
				if err != nil {
					log.Fatal(err)
				}
				sk, err := sketch.Deserialize(blob)
				if err != nil {
					log.Fatal(err)
				}
				restored, ok := sk.(*sketch.L0)
				if !ok {
					log.Fatalf("checkpoint decoded as %T, not *sketch.L0", sk)
				}
				fmt.Printf("site 3 checkpointed at %d events: %d-byte sketch, restored OK\n",
					k, len(blob))
				sites[3] = restored
			}
		}
	}

	// Coordinator: merge the other sites into site 0 via the Mergeable
	// interface (each merge leaves its argument intact).
	merged := sites[0]
	for i := 1; i < 4; i++ {
		if err := merged.Merge(sites[i]); err != nil {
			log.Fatal(err)
		}
	}
	ms := merged.Sampler()
	fmt.Printf("merged sketch over %d total occurrences: |Sacc|=%d |Srej|=%d R=%d, %d words\n",
		ms.Processed(), ms.AcceptSize(), ms.RejectSize(), ms.R(), merged.Space())

	// Sample distinct events from the union.
	fmt.Println("\n10 distinct-event samples from the union of all sites:")
	seen := map[int]bool{}
	var estimate float64
	for i := 0; i < 10; i++ {
		res, err := merged.Query()
		if err != nil {
			log.Fatal(err)
		}
		id := nearestEvent(res.Sample, events)
		seen[id] = true
		estimate = res.Estimate
		fmt.Printf("  event %3d\n", id)
	}
	fmt.Printf("(%d distinct events in 10 draws)\n", len(seen))
	fmt.Printf("\ncoarse distinct-event estimate |Sacc|·R = %.0f (truth %d)\n", estimate, numEvents)

	// The in-process version: the sharded engine routes the same stream
	// across 4 worker shards and answers from a merged snapshot.
	eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	eng.ProcessBatch(allOccurrences)
	res, err := eng.Query()
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("\nsharded engine over the same stream: estimate %.0f, %d shards, %.0f pts/s\n",
		res.Estimate, st.Shards, st.Throughput)
	eng.Close()
}

func nearestEvent(p geom.Point, events []geom.Point) int {
	best, bestD := -1, 1e18
	for i, e := range events {
		if d := geom.SqDist(p, e); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
