package server

// GET /watch suite: long-poll semantics over HTTP. These pin the
// contract the cluster gateway's push watchers depend on — a stale
// ?epoch= answers immediately, and so does one ahead of the engine (the
// watcher saw an earlier incarnation of a restarted daemon), a current
// one blocks until the next ingest, ?timeout= bounds the block, and
// malformed parameters are client errors, not hangs.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

func TestWatchImmediateWhenBehind(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: 1 << 12, Kappa: 64}
	ts, _ := newL0Server(t, opts, 2, "")

	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(stream(4, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON[IngestResponse](t, resp, http.StatusOK)

	start := time.Now()
	resp, err = http.Get(ts.URL + "/watch?epoch=0")
	if err != nil {
		t.Fatal(err)
	}
	epochHdr := resp.Header.Get(EpochHeader)
	wr := mustJSON[WatchResponse](t, resp, http.StatusOK)
	if !wr.Changed || wr.Epoch < 1 {
		t.Fatalf("watch behind the epoch = %+v, want Changed=true Epoch≥1", wr)
	}
	if epochHdr != fmt.Sprint(wr.Epoch) {
		t.Fatalf("%s header %q does not match body epoch %d", EpochHeader, epochHdr, wr.Epoch)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("watch behind the current epoch blocked")
	}
}

func TestWatchImmediateWhenAhead(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 8, StreamBound: 1 << 12, Kappa: 64}
	ts, _ := newL0Server(t, opts, 1, "")

	// A watcher that followed a previous incarnation up to epoch 99 meets
	// this fresh daemon at epoch 0: the restart is news, not a reason to
	// park until the new process passes 99.
	start := time.Now()
	resp, err := http.Get(ts.URL + "/watch?epoch=99&timeout=10s")
	if err != nil {
		t.Fatal(err)
	}
	wr := mustJSON[WatchResponse](t, resp, http.StatusOK)
	if !wr.Changed || wr.Epoch != 0 {
		t.Fatalf("watch ahead of the epoch = %+v, want Changed=true Epoch=0", wr)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("watch ahead of the current epoch blocked")
	}
}

func TestWatchWokenByIngest(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 4, StreamBound: 1 << 12, Kappa: 64}
	ts, eng := newL0Server(t, opts, 2, "")

	cur := eng.Epoch()
	type res struct {
		wr  WatchResponse
		err error
	}
	done := make(chan res, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/watch?epoch=%d&timeout=10s", ts.URL, cur))
		if err != nil {
			done <- res{err: err}
			return
		}
		defer resp.Body.Close()
		var wr WatchResponse
		err = json.NewDecoder(resp.Body).Decode(&wr)
		done <- res{wr: wr, err: err}
	}()

	// Let the long-poll park server-side, then bump the epoch over HTTP.
	time.Sleep(50 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(stream(2, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON[IngestResponse](t, resp, http.StatusOK)

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.wr.Changed || r.wr.Epoch <= cur {
			t.Fatalf("woken watch = %+v, want Changed=true Epoch>%d", r.wr, cur)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("watch not woken by ingest")
	}
}

func TestWatchTimesOutUnchanged(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: 1 << 12, Kappa: 64}
	ts, eng := newL0Server(t, opts, 1, "")

	start := time.Now()
	resp, err := http.Get(ts.URL + "/watch?epoch=0&timeout=50ms")
	if err != nil {
		t.Fatal(err)
	}
	wr := mustJSON[WatchResponse](t, resp, http.StatusOK)
	if wr.Changed {
		t.Fatalf("timed-out watch reported Changed=true: %+v", wr)
	}
	if wr.Epoch != eng.Epoch() {
		t.Fatalf("timed-out watch epoch %d, want current %d", wr.Epoch, eng.Epoch())
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("?timeout=50ms did not bound the poll")
	}
}

func TestWatchRejectsBadParams(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 6, StreamBound: 1 << 12, Kappa: 64}
	ts, _ := newL0Server(t, opts, 1, "")

	for _, path := range []string{
		"/watch?epoch=abc",
		"/watch?epoch=-1",
		"/watch?timeout=bogus",
		"/watch?timeout=-2s",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		mustJSON[ErrorResponse](t, resp, http.StatusBadRequest)
	}
}

func TestWatchStatsCounters(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 7, StreamBound: 1 << 12, Kappa: 64}
	ts, eng := newL0Server(t, opts, 1, "")

	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(stream(2, 1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON[IngestResponse](t, resp, http.StatusOK)

	if resp, err = http.Get(ts.URL + "/watch?epoch=0"); err != nil {
		t.Fatal(err)
	}
	mustJSON[WatchResponse](t, resp, http.StatusOK)
	// The timeout case waits at the current epoch: nothing moves it.
	if resp, err = http.Get(fmt.Sprintf("%s/watch?epoch=%d&timeout=20ms", ts.URL, eng.Epoch())); err != nil {
		t.Fatal(err)
	}
	mustJSON[WatchResponse](t, resp, http.StatusOK)

	if resp, err = http.Get(ts.URL + "/stats"); err != nil {
		t.Fatal(err)
	}
	st := mustJSON[StatsResponse](t, resp, http.StatusOK)
	if st.WatchRequests != 2 || st.WatchChanged != 1 || st.WatchTimeouts != 1 {
		t.Fatalf("watch counters = requests %d / changed %d / timeouts %d, want 2/1/1",
			st.WatchRequests, st.WatchChanged, st.WatchTimeouts)
	}
}
