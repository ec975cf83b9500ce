package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
	"repro/internal/window"
	"repro/pkg/sketch"
)

// Router maps stream points to shard hashes (reduced mod Shards by the
// engine). A router must be deterministic and safe for concurrent use,
// and should route all points of one near-duplicate group to one shard
// with high probability, so that per-shard sketches see whole groups and
// the merged snapshot's α-ball coalescing only has to repair the rare
// boundary group.
type Router interface {
	Route(p geom.Point) uint64
}

// GridRouter routes by the cell of a randomly shifted routing grid,
// independent of (and much coarser than) the sketch grid. A group of
// diameter ≤ α is cut by a grid of side S in some dimension with
// probability ≤ d·α/S over the random shift, so with the default side
// routeSideFactor·d·α at most ~1/routeSideFactor of groups straddle a
// shard boundary in expectation.
type GridRouter struct {
	g *grid.Grid
}

// routeSideFactor scales the routing-grid side relative to d·α: larger
// values split fewer groups across shards but coarsen load balancing.
const routeSideFactor = 32

// routerSeedSalt decorrelates the routing grid's shift from the sketch
// grid derived from the same user seed.
const routerSeedSalt = 0x726f75746572 // "router"

// NewGridRouter builds a routing grid with the given cell side.
func NewGridRouter(dim int, side float64, seed uint64) *GridRouter {
	return &GridRouter{g: grid.New(dim, side, seed)}
}

// NewDefaultRouter builds the default routing grid for sketches with the
// given dimension, duplicate radius alpha, and seed: side
// routeSideFactor·d·α, shift decorrelated from the sketch seed.
func NewDefaultRouter(dim int, alpha float64, seed uint64) *GridRouter {
	side := routeSideFactor * float64(dim) * alpha
	return NewGridRouter(dim, side, hash.Mix64(seed^routerSeedSalt))
}

// Route returns the routing-cell hash of p (allocation-free).
func (r *GridRouter) Route(p geom.Point) uint64 { return r.g.CellHash(p) }

// NewRouterFromOptions validates the option fields the routing grid needs
// — grid.New panics on them, but the engine constructors promise errors —
// and builds the default router for sketches with those options. It is
// the one routing constructor shared by every tier: the in-process engine
// shards with it, and internal/cluster's gateway routes ingest batches
// across daemons with the same grid, so a near-duplicate group lands on
// exactly one peer for the same reason it lands on one shard.
func NewRouterFromOptions(opts core.Options) (*GridRouter, error) {
	if opts.Dim < 1 {
		return nil, fmt.Errorf("engine: Options.Dim must be ≥ 1, got %d", opts.Dim)
	}
	if !(opts.Alpha > 0) {
		return nil, fmt.Errorf("engine: Options.Alpha must be positive, got %g", opts.Alpha)
	}
	return NewDefaultRouter(opts.Dim, opts.Alpha, opts.Seed), nil
}

// newWithDefaults builds an engine on cfg, filling a nil cfg.Router with
// the default router for sketches with opts and a nil cfg.New with mk.
func newWithDefaults(opts core.Options, cfg Config, mk func(int) (sketch.Sketch, error)) (*Engine, error) {
	if cfg.Router == nil {
		r, err := NewRouterFromOptions(opts)
		if err != nil {
			return nil, err
		}
		cfg.Router = r
	}
	if cfg.New == nil {
		cfg.New = mk
	}
	return New(cfg)
}

// NewSamplerEngine builds an engine whose shards run robust ℓ0-samplers
// (sketch.L0) with identical options — identical seeds make the shards
// mergeable — and a default grid router derived from the same options.
// cfg.New and cfg.Router are filled in; the other fields are honored.
func NewSamplerEngine(opts core.Options, cfg Config) (*Engine, error) {
	return newWithDefaults(opts, cfg, func(int) (sketch.Sketch, error) { return sketch.NewL0(opts) })
}

// NewF0Engine builds an engine whose shards run robust F0 estimators
// (sketch.F0) with identical options, mergeable copy by copy, and a
// default grid router derived from the same options.
func NewF0Engine(opts core.Options, eps float64, copies int, cfg Config) (*Engine, error) {
	return newWithDefaults(opts, cfg, func(int) (sketch.Sketch, error) { return sketch.NewF0(opts, eps, copies) })
}

// checkWindowedSharding admits only time-based windows into the engine:
// sequence windows expire by the global arrival index, which shard-local
// streams cannot reproduce, and their sketches are not Mergeable.
func checkWindowedSharding(win window.Window) error {
	if err := win.Validate(); err != nil {
		return err
	}
	if win.Kind != window.Time {
		return fmt.Errorf("%w: a %v window expires by global arrival index; use window.Time, or run the sampler single-threaded (see docs/engine.md \"Limitations\")",
			ErrWindowedSharding, win.Kind)
	}
	return nil
}

// NewWindowSamplerEngine builds an engine whose shards run sliding-window
// robust ℓ0-samplers (sketch.WindowL0) over a time-based window with
// identical options, plus a default grid router derived from the same
// options. Feed it through ProcessStampedBatch/ProcessAt (explicit
// timestamps) or Process/ProcessBatch ("arrives at the latest known
// time"); queries are answered from the merged snapshot, whose window
// right edge is the latest stamp across shards. Sequence windows return
// ErrWindowedSharding.
func NewWindowSamplerEngine(opts core.Options, win window.Window, cfg Config) (*Engine, error) {
	if err := checkWindowedSharding(win); err != nil {
		return nil, err
	}
	return newWithDefaults(opts, cfg, func(int) (sketch.Sketch, error) { return sketch.NewWindowL0(opts, win) })
}

// NewWindowF0Engine builds an engine whose shards run sliding-window
// robust F0 estimators (sketch.WindowF0) over a time-based window with
// identical options, mergeable copy by copy, plus a default grid router
// derived from the same options. Sequence windows return
// ErrWindowedSharding.
func NewWindowF0Engine(opts core.Options, win window.Window, eps float64, cfg Config) (*Engine, error) {
	if err := checkWindowedSharding(win); err != nil {
		return nil, err
	}
	return newWithDefaults(opts, cfg, func(int) (sketch.Sketch, error) { return sketch.NewWindowF0(opts, win, eps) })
}
