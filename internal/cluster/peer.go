package cluster

// Peer client: one sketchd daemon as seen from the gateway. Every request
// goes through do(), which owns timeouts, bounded retries with backoff,
// and per-peer health accounting — a small circuit breaker: after
// DownAfter consecutive failed requests the peer is marked down for
// DownCooldown and skipped by the scatter path (counted as failed), after
// which the next request probes it again.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// peer tracks one backend daemon: its base URL plus health and traffic
// counters. All fields are atomics; peers are shared by every handler
// goroutine.
type peer struct {
	url string // base URL without trailing slash

	requests  atomic.Int64 // requests issued (retries of one request count once)
	failures  atomic.Int64 // requests that failed after all retries
	consec    atomic.Int64 // consecutive failed requests (resets on success)
	downUntil atomic.Int64 // unix nanos until which the breaker is open; 0 = closed
	lastErr   atomic.Value // string: most recent failure, for /stats
	watchOK   atomic.Bool  // the peer's watcher is healthy
}

// up reports whether the peer's circuit breaker is closed — the
// reporting view (/stats, /healthz). Deliberately pessimistic: a tripped
// peer stays "down" until a successful half-open probe actually closes
// the breaker, so an idle gateway over a dead fleet never drifts back to
// healthy just because the cooldown elapsed. Request paths use admit.
//
//sketch:hotpath
func (p *peer) up() bool {
	return p.downUntil.Load() == 0
}

// admit decides whether a request may be sent to the peer: true while the
// breaker is closed, and for exactly one caller per cooldown window once
// it has elapsed (half-open) — the winner's CAS re-arms the breaker, so
// concurrent callers keep skipping a still-dead peer instead of all
// stalling on their own probe's full retry schedule. A successful probe
// closes the breaker (recordSuccess); a failed one leaves it armed.
//
//sketch:hotpath
func (p *peer) admit(now time.Time, cooldown time.Duration) bool {
	du := p.downUntil.Load()
	if du == 0 {
		return true
	}
	if now.UnixNano() < du {
		return false
	}
	return p.downUntil.CompareAndSwap(du, now.Add(cooldown).UnixNano())
}

// recordSuccess closes the circuit breaker.
//
//sketch:hotpath
func (p *peer) recordSuccess() {
	p.consec.Store(0)
	p.downUntil.Store(0)
}

// recordFailure counts a failed request and opens the breaker for
// cooldown once downAfter consecutive requests have failed.
func (p *peer) recordFailure(err error, downAfter int, cooldown time.Duration) {
	p.failures.Add(1)
	p.lastErr.Store(err.Error())
	if p.consec.Add(1) >= int64(downAfter) {
		p.downUntil.Store(time.Now().Add(cooldown).UnixNano())
	}
}

// lastError returns the most recent failure message, or "".
func (p *peer) lastError() string {
	if v := p.lastErr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// errPeerStatus is a non-2xx peer response surfaced as an error, carrying
// the decoded {"error": ...} body when the peer sent one.
type errPeerStatus struct {
	code int
	msg  string
}

func (e *errPeerStatus) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("peer status %d: %s", e.code, e.msg)
	}
	return fmt.Sprintf("peer status %d", e.code)
}

// decodePeerError turns a non-2xx peer response into an errPeerStatus.
func decodePeerError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	_ = json.Unmarshal(blob, &body)
	return &errPeerStatus{code: resp.StatusCode, msg: body.Error}
}

// do issues one request to the peer with per-attempt timeouts and bounded
// retries (network errors and 502–504 responses retry with linear
// backoff; other statuses are deterministic and do not). On a 2xx answer
// it returns the body, already fully read, and the response headers.
// Health is recorded for outcomes attributable to the peer — a failure
// caused by the caller's own context being canceled (client disconnect,
// gateway request deadline) charges nothing, so aborted fan-outs cannot
// open breakers on healthy peers.
func (g *Gateway) do(ctx context.Context, p *peer, method, path, contentType string, body []byte, extra http.Header) ([]byte, http.Header, error) {
	p.requests.Add(1)
	var lastErr error
loop:
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				lastErr = ctx.Err()
				break loop
			case <-time.After(g.cfg.RetryBackoff * time.Duration(attempt)):
			}
		}
		blob, hdr, retriable, err := g.attempt(ctx, p, method, path, contentType, body, extra)
		if err == nil {
			p.recordSuccess()
			return blob, hdr, nil
		}
		lastErr = err
		if !retriable {
			break
		}
	}
	err := fmt.Errorf("cluster: %s %s%s: %w", method, p.url, path, lastErr)
	// Charge the breaker only for failures that say the peer is
	// unhealthy: transport errors and gateway-range statuses. A decoded
	// application-level status (4xx, 500, 501) proves the peer is alive
	// and answering deterministically — misconfiguration must surface as
	// the error it is, not masquerade as a peer outage in /stats.
	var ps *errPeerStatus
	alive := errors.As(lastErr, &ps) && !transientStatus(ps.code)
	if ctx.Err() == nil && !alive {
		p.recordFailure(err, g.cfg.DownAfter, g.cfg.DownCooldown)
	}
	return nil, nil, err
}

// transientStatus reports whether an HTTP status from a peer indicates a
// condition worth retrying and charging to peer health (the gateway
// range: the peer or something in front of it is unreachable or
// overloaded). Other statuses are deterministic answers.
func transientStatus(code int) bool {
	return code >= http.StatusBadGateway && code <= http.StatusGatewayTimeout
}

// attempt performs a single HTTP exchange; retriable reports whether a
// failure is worth another attempt (network error or a transient 502–504
// status — see transientStatus). extra headers (the forwarded ingest
// stamp) are applied after the content type.
func (g *Gateway) attempt(ctx context.Context, p *peer, method, path, contentType string, body []byte, extra http.Header) (blob []byte, hdr http.Header, retriable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, p.url+path, rd)
	if err != nil {
		return nil, nil, false, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	// Propagate the request's trace ID (attached by beginTrace, or a
	// watcher/refresher session ID) to the peer. telemetry.Detach and
	// WithTimeout both preserve context values, so the ID survives the
	// singleflight detach in refresh and the per-attempt deadline here.
	if tr := telemetry.TraceFrom(ctx); tr != "" {
		req.Header.Set(telemetry.TraceHeader, tr)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, nil, transientStatus(resp.StatusCode), decodePeerError(resp)
	}
	blob, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, true, err
	}
	return blob, resp.Header, false, nil
}
