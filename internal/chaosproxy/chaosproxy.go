// Package chaosproxy is a TCP proxy that injects failures between an
// HTTP client and one upstream peer: added latency, connection resets,
// hard-down periods, and automatic up/down flapping. The cluster chaos
// tests put one in front of a sketchd peer to prove the gateway's
// circuit-breaker and serve-stale machinery degrade and recover as
// designed.
package chaosproxy

import (
	"fmt"
	"net"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy forwards TCP connections to a fixed upstream address, applying
// the currently configured faults. All fault knobs are safe to flip
// concurrently with live traffic.
type Proxy struct {
	ln     net.Listener
	target string

	latencyNS atomic.Int64 // added delay before each upstream-bound chunk
	down      atomic.Bool  // reject new conns with RST

	// mu guards conns and orders serve's admission check against
	// CutActive: a connection is either refused under mu or tracked
	// under mu before a concurrent cut can sweep.
	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// afterDial, when non-nil, runs in serve between the upstream dial
	// and the admission check; tests use it to land a down transition
	// there.
	afterDial func()

	closed   atomic.Bool
	flapStop chan struct{}
	flapOnce sync.Once
	wg       sync.WaitGroup
}

// New starts a proxy on a fresh loopback port forwarding to targetURL
// (an http:// URL or host:port of the upstream peer).
func New(targetURL string) (*Proxy, error) { return newProxy(targetURL, nil) }

// newProxy is New with the afterDial hook, set before the accept loop
// starts so that no serve goroutine can race its write.
func newProxy(targetURL string, afterDial func()) (*Proxy, error) {
	addr := targetURL
	if u, err := url.Parse(targetURL); err == nil && u.Host != "" {
		addr = u.Host
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaosproxy: listen: %w", err)
	}
	p := &Proxy{
		ln:        ln,
		target:    addr,
		conns:     map[net.Conn]struct{}{},
		afterDial: afterDial,
		flapStop:  make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// URL returns the proxy's listen address as an http:// base URL —
// clients point here instead of at the upstream peer.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// SetLatency injects d of delay before every client→upstream chunk
// (0 removes it).
func (p *Proxy) SetLatency(d time.Duration) { p.latencyNS.Store(int64(d)) }

// SetDown controls hard-down mode: while down, new connections are
// reset immediately and, on the transition, every active connection is
// cut — from the client's side indistinguishable from a crashed peer.
// The flag flips before the cut, so a connection still dialing its
// upstream is refused by serve's admission check if the cut misses it.
func (p *Proxy) SetDown(down bool) {
	was := p.down.Swap(down)
	if down && !was {
		p.CutActive()
	}
}

// Down reports whether the proxy is in hard-down mode.
func (p *Proxy) Down() bool { return p.down.Load() }

// CutActive resets every in-flight connection (RST, not FIN) without
// changing the down state.
func (p *Proxy) CutActive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		abort(c)
		delete(p.conns, c)
	}
}

// Flap toggles the proxy between up for upFor and down for downFor
// until the returned stop function is called or the proxy is closed.
// The proxy starts (or stays) up; the first down transition happens
// after upFor. stop halts the flapping and leaves the proxy up.
func (p *Proxy) Flap(upFor, downFor time.Duration) (stop func()) {
	ch := make(chan struct{})
	var once sync.Once
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTimer(upFor)
		defer t.Stop()
		downPhase := false
		for {
			select {
			case <-p.flapStop:
				return
			case <-ch:
				return
			case <-t.C:
			}
			downPhase = !downPhase
			p.SetDown(downPhase)
			if downPhase {
				t.Reset(downFor)
			} else {
				t.Reset(upFor)
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(ch)
			p.SetDown(false)
		})
	}
}

// Close stops the flapper, the accept loop, and every active connection.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.flapOnce.Do(func() { close(p.flapStop) })
	err := p.ln.Close()
	p.CutActive()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if p.down.Load() {
			abort(c)
			continue
		}
		p.wg.Add(1)
		go p.serve(c)
	}
}

// serve dials the upstream and relays both directions until either side
// closes or the connection is cut.
func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		abort(client)
		return
	}
	if p.afterDial != nil {
		p.afterDial()
	}
	if !p.admit(client, upstream) {
		abort(client)
		abort(upstream)
		return
	}
	defer p.untrack(client)
	defer p.untrack(upstream)

	done := make(chan struct{}, 2)
	go func() { // client → upstream, with per-chunk latency
		p.relay(upstream, client, &p.latencyNS)
		done <- struct{}{}
	}()
	go func() { // upstream → client
		p.relay(client, upstream, nil)
		done <- struct{}{}
	}()
	<-done
	// Either direction ending tears the pair down: half-open relays
	// would otherwise pin flapped connections forever.
	abort(client)
	abort(upstream)
	<-done
}

// admit tracks a freshly dialed pair unless the proxy went down or
// closed while serve was dialing. The check and the tracking share mu
// with CutActive, and SetDown and Close set their flags before they
// cut, so every pair is either refused here or cut there.
func (p *Proxy) admit(client, upstream net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down.Load() || p.closed.Load() {
		return false
	}
	p.conns[client] = struct{}{}
	p.conns[upstream] = struct{}{}
	return true
}

// relay copies src → dst. latency (if non-nil) delays every chunk.
func (p *Proxy) relay(dst, src net.Conn, latency *atomic.Int64) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if latency != nil {
				p.sleep(time.Duration(latency.Load()))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// sleep waits d but wakes early when the proxy shuts down.
func (p *Proxy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.flapStop:
	}
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// abort closes c with an RST rather than a clean FIN where the platform
// allows it, so clients observe "connection reset by peer" — the failure
// mode a crashed process produces.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
