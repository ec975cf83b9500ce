package pointio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestReadPointsBasic(t *testing.T) {
	in := "1 2 3\n4,5,6\n\n# comment\n7\t8\t9\n"
	pts, err := ReadPoints(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []geom.Point{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if len(pts) != len(want) {
		t.Fatalf("%d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if !pts[i].Equal(want[i]) {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestReadPointsErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		dim  int
	}{
		{"wrong arity", "1 2\n", 3},
		{"bad number", "1 x 3\n", 3},
		{"empty input", "\n# only comments\n", 2},
		{"bad dim", "1 2\n", 0},
		{"NaN coordinate", "1 2\nNaN 3\n", 2},
		{"Inf coordinate", "-Inf 1\n", 2},
	}
	for _, c := range cases {
		if _, err := ReadPoints(strings.NewReader(c.in), c.dim); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParsePointScientific(t *testing.T) {
	p, err := ParsePoint("1e-3, -2.5E2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(geom.Point{0.001, -250}) {
		t.Fatalf("parsed %v", p)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := []geom.Point{{1.5, -2.25}, {0.001, 1e10}, {0, 0}}
	var buf bytes.Buffer
	if err := WritePoints(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPoints(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("%d points back, want %d", len(back), len(orig))
	}
	for i := range orig {
		if !back[i].Equal(orig[i]) {
			t.Errorf("point %d: %v != %v", i, back[i], orig[i])
		}
	}
}
