package pointio

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadPoints feeds arbitrary text through the parser: it must never
// panic, every parsed coordinate must be finite (the sketches refuse
// anything else), and whatever parses successfully must round-trip
// through WritePoints/ReadPoints unchanged.
func FuzzReadPoints(f *testing.F) {
	f.Add("1 2 3\n4 5 6\n", 3)
	f.Add("1,2\n# comment\n\n3,4\n", 2)
	f.Add("1e300 -2.5\n", 2)
	f.Add("not a number\n", 2)
	f.Add("1 2\n3\n", 2)
	f.Add("NaN 1\n", 2)
	f.Add("[1, 2]\n", 2)
	f.Fuzz(func(t *testing.T, input string, dim int) {
		if dim < 1 || dim > 32 {
			return
		}
		pts, err := ReadPoints(strings.NewReader(input), dim)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		for _, p := range pts {
			if len(p) != dim {
				t.Fatalf("parsed point of dimension %d, want %d", len(p), dim)
			}
			for _, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("parsed non-finite coordinate %v", v)
				}
			}
		}
		var buf bytes.Buffer
		if err := WritePoints(&buf, pts); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPoints(&buf, dim)
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v", err)
		}
		if len(back) != len(pts) {
			t.Fatalf("round-trip count %d, want %d", len(back), len(pts))
		}
		for i := range pts {
			for j := range pts[i] {
				if a, b := pts[i][j], back[i][j]; a != b {
					t.Fatalf("coordinate %d/%d changed: %v → %v", i, j, a, b)
				}
			}
		}
	})
}
