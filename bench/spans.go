package main

// Bench-side spans of the traced pass: one per phase, per HTTP call and
// per replayed layer call, kept in memory and written as JSON lines when
// the benchmark ends. The program itself records nothing extra; requests
// carry the span's X-Sketch-Trace ID so the system's own stage histograms
// and slow-query lines can be joined to them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the benchmark started
	End    int64  `json:"end_ns"`
	Trace  string `json:"trace,omitempty"`
}

// spanLog is safe for concurrent use; a nil *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return id
}

// request opens a span for an HTTP call and tags the request with its
// trace ID.
func (l *spanLog) request(req *http.Request, name string, parent int) int {
	if l == nil {
		return -1
	}
	id := l.begin(name, parent)
	trace := fmt.Sprintf("bench-%d", id)
	req.Header.Set(traceHeader, trace)
	l.mu.Lock()
	l.spans[id].Trace = trace
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].End = int64(time.Since(l.t0))
	l.mu.Unlock()
}

// calls records one span per call of a replayed stage, timed by the
// caller.
func (l *spanLog) calls(parent int, name string, starts []time.Time, durs []time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, t := range starts {
		s := int64(t.Sub(l.t0))
		l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name, Start: s, End: s + int64(durs[i])})
	}
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
