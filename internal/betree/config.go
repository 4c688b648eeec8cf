package betree

import "time"

// Config carries the tunables and optimization toggles of the Bε-tree.
// The zero value is not usable; start from DefaultConfig.
type Config struct {
	// NodeSize is the target serialized node size (2–4 MiB in BetrFS).
	NodeSize int
	// BasementSize is the target basement-node size (~128 KiB).
	BasementSize int
	// Fanout is the maximum child count of an interior node.
	Fanout int
	// CacheBytes is the node-cache memory budget.
	CacheBytes int64
	// CheckpointPeriod is the interval between automatic checkpoints.
	CheckpointPeriod time.Duration

	// LegacyApplyOnQuery selects the v0.4 heuristic that pushes or
	// applies pending messages for the whole basement/leaf on every
	// query; false selects the v0.6 policy that only acts when a pending
	// message affects the query's outcome (§4, QRY).
	LegacyApplyOnQuery bool
	// PageSharing enables insert-by-reference and the aligned node
	// format, eliding per-level value copies (§6, PGSH).
	PageSharing bool
	// ReadAhead enables tree-level prefetch of upcoming basement/leaf
	// nodes on sequential cursors (§3.2; part of SFL in the ladder).
	ReadAhead bool
	// CoalesceRangeDeletes enables the PacMan fast path introduced in
	// §4 (RG): newest-first traversal so broad deletes gobble narrow
	// ones. When false, PacMan still runs but — as in v0.4 — compares
	// every range message against every other message with no effect
	// unless ranges strictly overlap.
	CoalesceRangeDeletes bool

	// Concurrent readies the store for client goroutines (DESIGN.md §9).
	// Every store runs the same locking protocol; this picks only the
	// node cache's shape — eight lock stripes whose readers defer dirty
	// write-back to the background flusher, instead of one stripe (one
	// global eviction order, the golden cells') that writes back inline
	// — and makes Get return a private copy of the value. Whether work
	// runs in the background is up to the sim pool's worker count.
	// Shared-mode reads need LegacyApplyOnQuery off; with the v0.4 policy
	// reads serialize (they restructure the tree).
	Concurrent bool
}

// relocateAttempts bounds write-path relocation (DESIGN.md §10.6): when a
// node-image write fails with a non-transient device error, the store
// retires the extent to the grown-defect list and retries the write at
// freshly allocated space up to this many times before latching the
// sticky write error (errors=remount-ro).
const relocateAttempts = 2

// logPayloadMax is the largest insert value LogAuto records in the redo
// log; larger inserts (file data pages) are logged by key only and made
// durable by checkpointing (see DESIGN.md on crash semantics). Updates are
// logged whole at any size.
const logPayloadMax = 512

// DefaultConfig returns the BetrFS v0.6 tree configuration.
func DefaultConfig() Config {
	return Config{
		NodeSize:             4 << 20,
		BasementSize:         128 << 10,
		Fanout:               16,
		CacheBytes:           1 << 30,
		CheckpointPeriod:     60 * time.Second,
		LegacyApplyOnQuery:   false,
		PageSharing:          true,
		ReadAhead:            true,
		CoalesceRangeDeletes: true,
	}
}

// V04Config returns the tree configuration of BetrFS v0.4: legacy
// apply-on-query, no page sharing, no tree-level read-ahead, and the
// ineffective PacMan traversal.
func V04Config() Config {
	c := DefaultConfig()
	c.LegacyApplyOnQuery = true
	c.PageSharing = false
	c.ReadAhead = false
	c.CoalesceRangeDeletes = false
	return c
}
