package baseline

import (
	"math/rand/v2"

	"repro/internal/geom"
	"repro/internal/window"
)

// Reservoir is Vitter's reservoir sampling [35]: a uniform sample of k
// items from a stream of unknown length using O(k) space. The core package
// uses the k=1 logic inline for its random-representative augmentation;
// this standalone version backs tests and examples.
type Reservoir struct {
	k     int
	rng   *rand.Rand
	items []geom.Point
	n     int64
}

// NewReservoir builds a reservoir of capacity k ≥ 1.
func NewReservoir(k int, seed uint64) *Reservoir {
	if k < 1 {
		k = 1
	}
	return &Reservoir{k: k, rng: rand.New(rand.NewPCG(seed, 0x7265737672))}
}

// Process feeds the next item.
func (r *Reservoir) Process(p geom.Point) {
	r.n++
	if len(r.items) < r.k {
		r.items = append(r.items, p.Clone())
		return
	}
	if j := r.rng.Int64N(r.n); j < int64(r.k) {
		r.items[j] = p.Clone()
	}
}

// Seen returns how many items were processed.
func (r *Reservoir) Seen() int64 { return r.n }

// Sample returns the current reservoir contents (length min(k, n)). The
// returned slice is owned by the reservoir; callers must not mutate it.
func (r *Reservoir) Sample() []geom.Point { return r.items }

// WindowReservoir maintains a uniform random sample of size 1 from a
// sliding window using priority sampling (the scheme underlying
// Braverman–Ostrovsky–Zaniolo optimal window sampling [8]): every item
// draws a random priority, and the window's sample is the maximum-priority
// non-expired item, maintained on the skyline of items not dominated by a
// later higher-priority item. Expected skyline size is O(log w).
type WindowReservoir struct {
	win window.Window
	rng *rand.Rand
	// items is the skyline in arrival order: priorities strictly decrease
	// from front (oldest) to back (newest), so the front holds the current
	// window maximum.
	items []wrItem
	now   int64
}

type wrItem struct {
	stamp int64
	prio  uint64
	p     geom.Point
}

// NewWindowReservoir builds the window sampler.
func NewWindowReservoir(win window.Window, seed uint64) (*WindowReservoir, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	return &WindowReservoir{win: win, rng: rand.New(rand.NewPCG(seed, 0x777265737672))}, nil
}

// Process feeds the next item with its stamp (non-decreasing).
func (w *WindowReservoir) Process(p geom.Point, stamp int64) {
	if stamp > w.now {
		w.now = stamp
	}
	// Expire the front.
	i := 0
	for i < len(w.items) && w.win.Expired(w.items[i].stamp, w.now) {
		i++
	}
	w.items = w.items[i:]
	// Drop dominated items from the back.
	prio := w.rng.Uint64()
	for len(w.items) > 0 && w.items[len(w.items)-1].prio <= prio {
		w.items = w.items[:len(w.items)-1]
	}
	w.items = append(w.items, wrItem{stamp: stamp, prio: prio, p: p.Clone()})
}

// Size returns the skyline size.
func (w *WindowReservoir) Size() int { return len(w.items) }

// Query returns a uniform random item of the current window (the
// maximum-priority non-expired item).
func (w *WindowReservoir) Query() (geom.Point, error) {
	if len(w.items) == 0 {
		return nil, ErrEmpty
	}
	return w.items[0].p, nil
}
