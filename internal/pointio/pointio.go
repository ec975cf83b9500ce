// Package pointio parses streams of points: the CLI tools' text input
// (one point per line, whitespace- or comma-separated coordinates or a
// JSON array, with blank lines and '#' comments skipped) and the HTTP
// tiers' ingest batches, text or packed binary (batch.go).
package pointio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// ReadPoints parses all points of dimension dim from r with the daemon's
// text parser, ReadTextBatch. It fails on the first malformed line (with
// its line number), on a non-finite coordinate and on empty input.
func ReadPoints(r io.Reader, dim int) ([]geom.Point, error) {
	pts, err := ReadTextBatch(r, dim)
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("pointio: no points in input")
	}
	return pts, nil
}

// ParsePoint parses a single line of dim coordinates.
func ParsePoint(text string, dim int) (geom.Point, error) {
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	if len(fields) != dim {
		return nil, fmt.Errorf("%d coordinates, want %d", len(fields), dim)
	}
	p := make(geom.Point, dim)
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q: %v", f, err)
		}
		p[i] = v
	}
	return p, nil
}

// IndexStamps returns the stamps 1..n — the arrival-index-as-timestamp
// convention the CLIs use to run time-window sketches over point
// streams that carry no timestamps of their own (a time window of width
// W then holds exactly the last W points).
func IndexStamps(n int) []int64 {
	stamps := make([]int64, n)
	for i := range stamps {
		stamps[i] = int64(i + 1)
	}
	return stamps
}

// WritePoints renders points one per line with space-separated
// coordinates, the inverse of ReadPoints.
func WritePoints(w io.Writer, pts []geom.Point) error {
	bw := bufio.NewWriter(w)
	for _, p := range pts {
		for i, v := range p {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
