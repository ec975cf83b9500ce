package main

// Workloads and their inputs. Every input is a pure function of the
// workload, the seed and the run length, generated before the clock
// starts; the system under test only ever sees the encoded bodies.
//
// Group g is centred on a grid with spacing 10α: coordinate j of its
// centre is the j-th base-64 digit of g times 10α. Its points are
// jittered by at most ±α/4 per coordinate, so every point lies within
// α/4·√dim < α of its own centre and ≥ 9α from every other group's
// points: the generator knows the exact distinct count.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
)

// System settings, fixed for every run and independent of the workload
// seed (sketchd/sketchgw -alpha -seed -m -shards; -eps and -copies are the
// daemon defaults the f0 replay mirrors).
const (
	alpha    = 1.0
	sysSeed  = 1
	streamM  = 8388608
	shards   = 2
	f0Eps    = 0.25
	f0Copies = 9
)

// Input shape shared by every workload.
const (
	batchSize   = 200        // points per ingest body
	spacing     = 10 * alpha // distance between neighbouring group centres
	jitter      = alpha / 4  // per-coordinate half-width of a group
	digitBase   = 64         // groups per grid axis
	queryEvery  = 16         // closed loop: one query after this many batches per connection
	openShare   = 0.6        // share of --seconds spent in the open-loop phase
	stampBase   = 1_000_000  // window stamp of batch 0
	stampStep   = 10         // window stamps advance this much per batch
	stampJitter = 200        // ± jitter on every batch stamp
	lateShare   = 0.10       // share of window batches stamped late
	lateMin     = 1000       // a late batch lags its slot by lateMin..lateMax
	lateMax     = 3000
)

// workload is one traffic mix. BENCHMARK.json and README.md say why each
// exists; the fields say what it is.
type workload struct {
	name   string
	peers  int     // daemons; more than one puts a gateway in front
	sketch string  // daemon -sketch family
	dim    int     // point dimension
	groups int     // distinct groups the stream draws from
	zipf   float64 // Zipf exponent over groups; 0 draws them uniformly
	rate   int     // open-loop ingest rate, points per second
	qps    int     // open-loop query rate, queries per second
	k      int     // daemon -k and the query's ?k= (1 sends no k)
	window int64   // daemon -window in stamp units; 0 is the infinite window
	// peak sizes the closed-loop input pool in points per second of the
	// phase, about twice the rate measured on a 2-CPU host; a faster system
	// empties it before the phase ends, which shortens the phase.
	peak int
}

var workloads = []workload{
	{name: "cluster-dup", peers: 3, sketch: "l0", dim: 2, groups: 512, zipf: 1.2, rate: 100_000, qps: 100, k: 4, peak: 400_000},
	{name: "cluster-distinct", peers: 3, sketch: "l0", dim: 3, groups: 200_000, rate: 40_000, qps: 100, k: 4, peak: 250_000},
	{name: "cluster-window", peers: 3, sketch: "l0", dim: 2, groups: 512, zipf: 1.2, rate: 45_000, qps: 100, k: 1, window: 5000, peak: 300_000},
	{name: "daemon-f0", peers: 1, sketch: "f0", dim: 3, groups: 200_000, rate: 40_000, qps: 40, k: 1, peak: 300_000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cluster reports whether the workload runs a gateway in front of its
// daemons.
func (w workload) cluster() bool { return w.peers > 1 }

// phases splits a run of the given length into its open-loop and
// closed-loop phases.
func phases(seconds float64) (open, closed float64) {
	return seconds * openShare, seconds * (1 - openShare)
}

// inputs is one workload's generated stream: batch 0 is ingested during
// set-up, batches 1..nOpen are the open-loop phase, and the rest is the
// closed-loop pool.
type inputs struct {
	w      workload
	stride int     // bytes per body
	bodies []byte  // batch b is bodies[b*stride:(b+1)*stride], packed little-endian float64s
	groups []int32 // group of every point, in stream order
	stamps []int64 // window workloads: the X-Sketch-Stamp of every batch
	late   []bool  // window workloads: whether the batch was stamped late
	first  []int32 // per group: the first batch holding it, -1 if none
	nOpen  int
}

func (in *inputs) batches() int { return len(in.groups) / batchSize }

func (in *inputs) body(b int) []byte { return in.bodies[b*in.stride : (b+1)*in.stride] }

func (in *inputs) batchGroups(b int) []int32 { return in.groups[b*batchSize : (b+1)*batchSize] }

// generate builds the workload's stream for a run of the given length.
func generate(w workload, seed uint64, seconds float64) *inputs {
	openS, closedS := phases(seconds)
	nOpen := int(math.Ceil(float64(w.rate) * openS / batchSize))
	nClosed := int(math.Ceil(float64(w.peak) * closedS / batchSize))
	n := 1 + nOpen + nClosed

	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	draw := groupDrawer(w, rng)

	in := &inputs{
		w:      w,
		stride: batchSize * w.dim * 8,
		groups: make([]int32, n*batchSize),
		first:  make([]int32, w.groups),
		nOpen:  nOpen,
	}
	in.bodies = make([]byte, n*in.stride)
	for g := range in.first {
		in.first[g] = -1
	}
	off := 0
	for i := range in.groups {
		g := draw()
		in.groups[i] = int32(g)
		if in.first[g] < 0 {
			in.first[g] = int32(i / batchSize)
		}
		for j := 0; j < w.dim; j++ {
			v := centre(g, j) + (2*rng.Float64()-1)*jitter
			binary.LittleEndian.PutUint64(in.bodies[off:], math.Float64bits(v))
			off += 8
		}
	}
	if w.window > 0 {
		in.stamps = make([]int64, n)
		in.late = make([]bool, n)
		for b := range in.stamps {
			s := stampBase + int64(b)*stampStep + rng.Int64N(2*stampJitter+1) - stampJitter
			if b > 0 && rng.Float64() < lateShare {
				in.late[b] = true
				s -= lateMin + rng.Int64N(lateMax-lateMin+1)
			}
			in.stamps[b] = s
		}
	}
	return in
}

// groupDrawer returns a sampler of group ids: Zipf-distributed ranks
// (group 0 most frequent) or uniform over the workload's groups.
func groupDrawer(w workload, rng *rand.Rand) func() int {
	if w.zipf == 0 {
		return func() int { return rng.IntN(w.groups) }
	}
	cdf := make([]float64, w.groups)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -w.zipf)
		cdf[i] = total
	}
	return func() int {
		i := sort.SearchFloat64s(cdf, rng.Float64()*total)
		return min(i, w.groups-1)
	}
}

// centre returns coordinate j of group g's centre.
func centre(g, j int) float64 {
	for ; j > 0; j-- {
		g /= digitBase
	}
	return float64(g%digitBase) * spacing
}

// groupOf returns the group whose centre lies within α of p, or -1 when p
// is near no centre of the workload's grid.
func groupOf(p []float64, groups int) int {
	g, scale := 0, 1
	for _, v := range p {
		d := math.Round(v / spacing)
		if d < 0 || d >= digitBase {
			return -1
		}
		g += int(d) * scale
		scale *= digitBase
	}
	if g >= groups {
		return -1
	}
	sq := 0.0
	for j, v := range p {
		dv := v - centre(g, j)
		sq += dv * dv
	}
	if sq > alpha*alpha {
		return -1
	}
	return g
}

// props describes the first sent batches of the stream: the exact
// distinct-group count, the share of points whose group appeared earlier,
// and the share of batches stamped late.
func (in *inputs) props(sent int) (distinct int, dupShare, lateShare float64) {
	seen := make([]bool, in.w.groups)
	pts := in.groups[:sent*batchSize]
	for _, g := range pts {
		if !seen[g] {
			seen[g] = true
			distinct++
		}
	}
	if len(pts) > 0 {
		dupShare = 1 - float64(distinct)/float64(len(pts))
	}
	if in.late != nil && sent > 0 {
		late := 0
		for _, l := range in.late[:sent] {
			if l {
				late++
			}
		}
		lateShare = float64(late) / float64(sent)
	}
	return distinct, dupShare, lateShare
}
