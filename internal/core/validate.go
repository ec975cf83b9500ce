package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// validatePoint rejects points that would corrupt grid arithmetic: wrong
// dimension, NaN or infinite coordinates (see checkFinite). It is better
// to fail loudly at the boundary.
func validatePoint(p geom.Point, dim int) {
	if len(p) != dim {
		panic(fmt.Sprintf("core: point dimension %d, sampler dimension %d", len(p), dim))
	}
	if err := checkFinite(p); err != nil {
		panic(err.Error())
	}
}

// checkFinite rejects NaN and infinite coordinates. Floor of a NaN
// coordinate is NaN and its int64 conversion is architecture-defined,
// which would make cell assignment non-deterministic; NaN also defeats the
// adjacency search's distance pruning. Process and the decoders share it.
func checkFinite(p []float64) error {
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite coordinate %g at index %d", v, i)
		}
	}
	return nil
}
