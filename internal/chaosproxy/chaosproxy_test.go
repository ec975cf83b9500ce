package chaosproxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newBackend starts a trivial HTTP upstream and a proxy in front of it,
// with afterDial as the proxy's dial hook (nil for none).
func newBackend(t *testing.T, afterDial func()) (*httptest.Server, *Proxy) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	}))
	t.Cleanup(ts.Close)
	p, err := newProxy(ts.URL, afterDial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return ts, p
}

// get fetches through the proxy with a short-lived client (no pooled
// connections, so down transitions are observed immediately).
func get(p *Proxy) (string, error) {
	client := &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	resp, err := client.Get(p.URL())
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func TestProxyForwards(t *testing.T) {
	_, p := newBackend(t, nil)
	body, err := get(p)
	if err != nil || body != "pong" {
		t.Fatalf("through proxy: %q, %v", body, err)
	}
}

func TestProxyDownResetsAndRecovers(t *testing.T) {
	_, p := newBackend(t, nil)
	p.SetDown(true)
	if _, err := get(p); err == nil {
		t.Fatal("request succeeded through a down proxy")
	}
	p.SetDown(false)
	body, err := get(p)
	if err != nil || body != "pong" {
		t.Fatalf("after recovery: %q, %v", body, err)
	}
}

func TestProxyDownCutsActiveConnections(t *testing.T) {
	ts, p := newBackend(t, nil)
	// A keep-alive client holds one connection through the proxy; the
	// down transition must reset it, not leave it half-usable.
	client := &http.Client{Timeout: 2 * time.Second}
	if _, err := client.Get(p.URL()); err != nil {
		t.Fatal(err)
	}
	p.SetDown(true)
	if resp, err := client.Get(p.URL()); err == nil {
		resp.Body.Close()
		t.Fatal("pooled connection survived the down transition")
	}
	_ = ts
}

// TestProxyDownDuringDial lands a down transition while serve is still
// dialing the upstream, before the pair is tracked where CutActive can
// reach it. The connection must be refused: relayed, it would serve the
// whole down phase, and a keep-alive pool would go on reusing it.
func TestProxyDownDuringDial(t *testing.T) {
	dialed, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	_, p := newBackend(t, func() {
		once.Do(func() { close(dialed) })
		<-release
	})
	errc := make(chan error, 1)
	go func() {
		_, err := get(p)
		errc <- err
	}()
	<-dialed
	p.SetDown(true)
	close(release)
	if err := <-errc; err == nil {
		t.Fatal("a connection dialed across the down transition relayed through the down proxy")
	}
}

func TestProxyLatency(t *testing.T) {
	_, p := newBackend(t, nil)
	p.SetLatency(60 * time.Millisecond)
	start := time.Now()
	if _, err := get(p); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("60ms injected, round trip took %v", d)
	}
}

func TestProxyFlap(t *testing.T) {
	_, p := newBackend(t, nil)
	p.Flap(80*time.Millisecond, 80*time.Millisecond)
	// Across a few cycles both phases must be observable.
	var sawUp, sawDown bool
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !(sawUp && sawDown) {
		if _, err := get(p); err == nil {
			sawUp = true
		} else if strings.Contains(err.Error(), "refused") || strings.Contains(err.Error(), "reset") || strings.Contains(err.Error(), "EOF") {
			sawDown = true
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawUp || !sawDown {
		t.Fatalf("flap phases observed: up=%v down=%v", sawUp, sawDown)
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	_, p := newBackend(t, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
