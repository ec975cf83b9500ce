// Package window defines the sliding-window semantics shared by the
// sliding-window samplers and estimators: sequence-based windows (the last
// w items) and time-based windows (items arriving in the last w time
// steps). Both reduce to one predicate over integer stamps; the only
// difference is what the stamp means (arrival index vs timestamp), exactly
// as the paper observes ("The only difference is that the definitions of
// the expiration of a point are different in the two cases").
package window

import "fmt"

// Kind selects the window semantics.
type Kind int

const (
	// Sequence windows contain the w most recent items; stamps are
	// arrival indices (1, 2, 3, ...).
	Sequence Kind = iota
	// Time windows contain items stamped within the last w time units;
	// stamps are caller-provided timestamps, and "now" is the latest.
	Time
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Sequence:
		return "sequence"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("window.Kind(%d)", int(k))
	}
}

// ParseKind parses the textual form of a Kind ("sequence" or "time") —
// the one convention shared by every -window-kind CLI flag.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "sequence":
		return Sequence, nil
	case "time":
		return Time, nil
	default:
		return 0, fmt.Errorf("window: unknown kind %q (want sequence or time)", s)
	}
}

// Window is a sliding window specification: semantics plus width.
type Window struct {
	Kind Kind
	// W is the window width: a count of items for Sequence windows, a
	// duration in stamp units for Time windows. Must be ≥ 1.
	W int64
}

// Validate reports whether the specification is usable.
func (w Window) Validate() error {
	if w.W < 1 {
		return fmt.Errorf("window: width must be ≥ 1, got %d", w.W)
	}
	switch w.Kind {
	case Sequence, Time:
		return nil
	default:
		return fmt.Errorf("window: unknown kind %d", int(w.Kind))
	}
}

// Expired reports whether an item with the given stamp has fallen out of
// the window whose most recent stamp is now. For sequence windows the live
// window is (now−w, now]; for time windows it is the same interval over
// timestamps, matching the paper's "last w time steps t−w+1, ..., t".
func (w Window) Expired(stamp, now int64) bool {
	return stamp <= now-w.W
}
