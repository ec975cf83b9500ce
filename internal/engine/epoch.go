package engine

import (
	"context"
	"sync/atomic"
)

// EpochCounter is a monotone counter whose every bump wakes all parked
// waiters: the long-poll primitive behind GET /watch, shared by the
// engine's ingest epoch and the cluster gateway's export generation. The
// broadcast is a single swap-and-close, so with no waiter parked a bump
// pays one atomic swap more than a bare counter and hot paths stay
// lock-free. The zero value is ready to use, at epoch 0.
type EpochCounter struct {
	n  atomic.Int64
	ch atomic.Pointer[chan struct{}] // parked waiters' broadcast channel; nil while nobody waits
}

// Load returns the current epoch.
//
//sketch:hotpath
func (c *EpochCounter) Load() int64 { return c.n.Load() }

// Bump advances the epoch and wakes every waiter.
//
//sketch:hotpath
func (c *EpochCounter) Bump() {
	c.n.Add(1)
	if ch := c.ch.Swap(nil); ch != nil {
		close(*ch)
	}
}

// Wait blocks until the epoch differs from after, or ctx is done, and
// returns the epoch it observed last. Any difference counts, not only a
// larger epoch: a caller ahead of the counter is watching a previous
// incarnation (a restarted daemon counts from 0 again) and must hear
// about it at once. Otherwise the caller parks on a broadcast channel
// that every bump closes, so N waiters cost one channel close per bump.
func (c *EpochCounter) Wait(ctx context.Context, after int64) int64 {
	for {
		if ep := c.n.Load(); ep != after {
			return ep
		}
		ch := c.ch.Load()
		if ch == nil {
			fresh := make(chan struct{})
			if !c.ch.CompareAndSwap(nil, &fresh) {
				continue // lost the install race; reload the winner's channel
			}
			ch = &fresh
		}
		// Re-check after parking the channel: a bump that raced ahead of
		// the install already advanced the epoch (atomics are seq-cst, so
		// a bump that this load misses must see — and close — *ch).
		if ep := c.n.Load(); ep != after {
			return ep
		}
		select {
		case <-*ch:
		case <-ctx.Done():
			return c.n.Load()
		}
	}
}
