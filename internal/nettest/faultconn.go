// Package nettest provides deterministic wire-level fault injection for
// the fsrpc/fsserve transport, mirroring what blockdev.FaultDev does for
// the block layer: a seeded schedule decides exactly how many bytes each
// connection may carry before the link dies mid-stream. The torture tests
// in this package run crashtest programs from several clients through the
// injector and check the served mount against the programs' model byte
// for byte, proving the session-resume and duplicate-reply machinery
// (DESIGN.md §13.9) end to end.
package nettest

import (
	"errors"
	"io"
	"math/rand"
	"sync"
)

// ErrInjected is the error surfaced by a FaultConn once its byte budget
// is exhausted and the connection has been cut.
var ErrInjected = errors.New("nettest: injected connection cut")

// FaultConn wraps a transport and kills it after a scheduled number of
// bytes (reads and writes combined) have passed through. The cut lands
// wherever the budget runs out — typically mid-frame: a Write delivers a
// partial frame to the peer and then the underlying connection closes,
// which is exactly the failure a yanked cable or killed process produces.
// A negative budget means the connection never faults.
type FaultConn struct {
	inner io.ReadWriteCloser

	mu     sync.Mutex
	budget int64 // bytes remaining before the cut; <0 = unlimited
	dead   bool
}

// NewFaultConn wraps inner with a byte budget.
func NewFaultConn(inner io.ReadWriteCloser, budget int64) *FaultConn {
	return &FaultConn{inner: inner, budget: budget}
}

// kill closes the underlying transport (both directions: the peer's
// blocked reads and writes fail too) and latches the fault.
func (c *FaultConn) kill() {
	c.mu.Lock()
	already := c.dead
	c.dead = true
	c.mu.Unlock()
	if !already {
		_ = c.inner.Close()
	}
}

// Write passes p through, truncating at the budget: the prefix that fits
// is delivered (the mid-frame partial write), then the connection dies.
func (c *FaultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	w := len(p)
	cut := false
	if c.budget >= 0 {
		if int64(w) >= c.budget {
			w = int(c.budget)
			cut = true
		}
		c.budget -= int64(w)
	}
	c.mu.Unlock()

	var n int
	var err error
	if w > 0 {
		n, err = c.inner.Write(p[:w])
	}
	if cut {
		c.kill()
		if err == nil {
			err = ErrInjected
		}
	}
	return n, err
}

// Read delivers at most the remaining budget; when the budget is spent
// the connection dies and the (possibly partial) bytes already read are
// still returned, so the peer sees a stream that just stops. A Write that
// overlaps the Read may spend the budget first; the budget then stops at
// 0, never below (which would mean unlimited), and the next call dies.
func (c *FaultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	room := len(p)
	limited := false
	if c.budget >= 0 && int64(room) >= c.budget {
		room = int(c.budget)
		limited = true
	}
	c.mu.Unlock()

	if room == 0 {
		c.kill()
		return 0, ErrInjected
	}
	n, err := c.inner.Read(p[:room])
	c.mu.Lock()
	if c.budget >= 0 {
		c.budget = max(c.budget-int64(n), 0)
	}
	spent := limited && c.budget == 0
	c.mu.Unlock()
	if spent {
		c.kill()
		if err == nil && n == 0 {
			err = ErrInjected
		}
	}
	return n, err
}

// Close shuts the connection down without counting as an injected fault.
func (c *FaultConn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c.inner.Close()
}

// Plan is a seeded, deterministic schedule of connection lifetimes: each
// Wrap call draws the next byte budget from the sequence. The same seed
// always produces the same cuts, so a torture run reproduces exactly.
type Plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	min   int64
	max   int64
	cuts  int // faulty connections remaining; <0 = every connection faults
	conns int
	last  *FaultConn
}

// NewPlan builds a schedule: the first cuts connections get a budget
// drawn uniformly from [minBytes, maxBytes]; later connections are
// clean. cuts < 0 makes every connection faulty. minBytes must
// comfortably exceed the resume-handshake size or the client can never
// make progress between cuts.
func NewPlan(seed, minBytes, maxBytes int64, cuts int) *Plan {
	if maxBytes < minBytes {
		maxBytes = minBytes
	}
	return &Plan{
		rng:  rand.New(rand.NewSource(seed)),
		min:  minBytes,
		max:  maxBytes,
		cuts: cuts,
	}
}

// Wrap applies the next scheduled budget to inner.
func (p *Plan) Wrap(inner io.ReadWriteCloser) *FaultConn {
	p.mu.Lock()
	p.conns++
	budget := int64(-1)
	if p.cuts != 0 {
		if p.cuts > 0 {
			p.cuts--
		}
		budget = p.min + p.rng.Int63n(p.max-p.min+1)
	}
	fc := NewFaultConn(inner, budget)
	p.last = fc
	p.mu.Unlock()
	return fc
}

// Conns reports how many connections the plan has wrapped.
func (p *Plan) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns
}

// Calm exhausts the schedule: connections wrapped from now on never
// fault. Tests use it to run a deterministic epilogue after the seeded
// cuts.
func (p *Plan) Calm() {
	p.mu.Lock()
	p.cuts = 0
	p.mu.Unlock()
}

// CutLive kills the most recently wrapped connection immediately,
// regardless of its remaining budget — a scheduled cable yank rather
// than a byte-triggered one.
func (p *Plan) CutLive() {
	p.mu.Lock()
	last := p.last
	p.mu.Unlock()
	if last != nil {
		last.kill()
	}
}
