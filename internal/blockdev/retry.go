package blockdev

import (
	"time"

	"betrfs/internal/ioerr"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// RetryPolicy bounds the retry loop wrapped around a fallible device.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per command, including the
	// first (minimum 1).
	MaxAttempts int
	// Backoff is the simulated delay before the first retry; it doubles
	// on each further retry (bounded exponential backoff).
	Backoff time.Duration
}

// DefaultRetryPolicy matches typical kernel block-layer behavior: a few
// quick retries with short exponential backoff, then give up and surface
// the error.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: 200 * time.Microsecond}
}

// RetryDev wraps a Device with retry-on-transient-fault. Transient errors
// (ioerr.IsTransient) are retried up to the policy bound with exponential
// backoff charged to the simulated clock; persistent errors and exhausted
// retries surface to the caller and are counted in io.error.*. With no
// faults injected below it, RetryDev is a pure pass-through: no extra
// charges, no behavior change.
//
// Asynchronous submissions degrade to synchronous only on the fault path:
// a failed submit is waited out, backed off, and resubmitted before the
// Completion is returned, so callers keep the simple Wait contract.
type RetryDev struct {
	env *sim.Env
	dev Device
	pol RetryPolicy

	mRetryRead      *metrics.Counter
	mRetryWrite     *metrics.Counter
	mRetryExhausted *metrics.Counter
	mErrRead        *metrics.Counter
	mErrWrite       *metrics.Counter
	mErrFlush       *metrics.Counter
}

// WithRetry wraps dev with the given retry policy.
func WithRetry(env *sim.Env, dev Device, pol RetryPolicy) *RetryDev {
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &RetryDev{
		env:             env,
		dev:             dev,
		pol:             pol,
		mRetryRead:      reg.Counter("io.retry.read"),
		mRetryWrite:     reg.Counter("io.retry.write"),
		mRetryExhausted: reg.Counter("io.retry.exhausted"),
		mErrRead:        reg.Counter("io.error.read"),
		mErrWrite:       reg.Counter("io.error.write"),
		mErrFlush:       reg.Counter("io.error.flush"),
	}
}

// Size returns the underlying device capacity.
func (d *RetryDev) Size() int64 { return d.dev.Size() }

// submit runs the shared retry loop for one command.
//
// Counter contract (metrics assertions rely on it): io.retry.read/write
// count RE-submissions only — a command that fails N times and then
// succeeds counts N retries and zero errors. io.error.* counts exactly one
// per command whose final attempt failed, whatever the attempt number.
// io.retry.exhausted additionally counts exactly one per command whose
// final error was still transient — the retry budget ran out — so
// "transient fault outlasted the retry loop" and "persistent fault" are
// distinguishable in the metrics.
func (d *RetryDev) submit(retries, errs *metrics.Counter,
	op func() Completion) Completion {
	c := op()
	backoff := d.pol.Backoff
	for attempt := 1; attempt < d.pol.MaxAttempts &&
		c.Err != nil && ioerr.IsTransient(c.Err); attempt++ {
		d.dev.Wait(c) // the failed command still occupied the device
		d.env.Charge(backoff)
		backoff *= 2
		retries.Inc()
		c = op()
	}
	if c.Err != nil {
		errs.Inc()
		if ioerr.IsTransient(c.Err) {
			d.mRetryExhausted.Inc()
		}
	}
	return c
}

// SubmitRead starts a read, retrying transient faults.
func (d *RetryDev) SubmitRead(p []byte, off int64) Completion {
	return d.submit(d.mRetryRead, d.mErrRead,
		func() Completion { return d.dev.SubmitRead(p, off) })
}

// SubmitWrite starts a write, retrying transient faults.
func (d *RetryDev) SubmitWrite(p []byte, off int64) Completion {
	return d.submit(d.mRetryWrite, d.mErrWrite,
		func() Completion { return d.dev.SubmitWrite(p, off) })
}

// Wait advances the clock to c's completion time and returns its outcome.
func (d *RetryDev) Wait(c Completion) error { return d.dev.Wait(c) }

// ReadAt synchronously reads with retry.
func (d *RetryDev) ReadAt(p []byte, off int64) error {
	return d.Wait(d.SubmitRead(p, off))
}

// WriteAt synchronously writes with retry.
func (d *RetryDev) WriteAt(p []byte, off int64) error {
	return d.Wait(d.SubmitWrite(p, off))
}

// Discard passes the TRIM through without retry: discard is advisory, so
// spending retry budget on it buys nothing — a failed trim just leaves
// the FTL holding stale pages until the space is overwritten.
func (d *RetryDev) Discard(off, length int64) error {
	return d.dev.Discard(off, length)
}

// Flush issues the barrier; flush failures are never transient in our
// fault model, so they surface directly.
func (d *RetryDev) Flush() error {
	err := d.dev.Flush()
	if err != nil {
		d.mErrFlush.Inc()
	}
	return err
}
