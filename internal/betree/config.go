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
	// LogPayloadMax is the largest value payload recorded in the redo
	// log; larger values (file data pages) are logged by key only and
	// made durable by checkpointing (see DESIGN.md on crash semantics).
	LogPayloadMax int

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
	// Lifting enables trie-style key compression at serialization
	// (§2.2): the longest common prefix of a basement's keys is stored
	// once, shrinking on-disk nodes and the bytes the serializer and
	// checksummer touch. Full-path keys make this very effective.
	Lifting bool
	// Compression models the node compression early BetrFS versions
	// used; the paper disables it because the computational cost can
	// delay I/Os for little benefit on an SSD (§2.2), so it defaults
	// off and exists for the ablation.
	Compression bool

	// Concurrent enables the reader/writer locking protocol of
	// DESIGN.md §9: point queries and scans run concurrently with
	// injects, readers defer dirty writeback to the background flusher,
	// and the node cache uses CacheShards lock stripes. Off (the
	// default), the store assumes single-goroutine use and keeps the
	// historical deterministic behaviour bit-for-bit, which is what the
	// golden benchmark cells are pinned against. Concurrent mode
	// requires LegacyApplyOnQuery to be off for shared-mode reads; with
	// the v0.4 policy reads serialize (they restructure the tree).
	Concurrent bool
	// CacheShards is the number of lock-striped node-cache shards,
	// rounded up to a power of two. Zero selects one shard when
	// Concurrent is off (one global eviction order) and eight when it is
	// on.
	CacheShards int

	// RelocateAttempts bounds write-path relocation (DESIGN.md §10.6):
	// when a node-image write fails with a non-transient device error,
	// the store retires the extent to the grown-defect list and retries
	// the write at freshly allocated space up to this many times before
	// latching the sticky write error (errors=remount-ro). Zero disables
	// relocation entirely, restoring the pre-defect-list behaviour.
	RelocateAttempts int
}

// DefaultConfig returns the BetrFS v0.6 tree configuration.
func DefaultConfig() Config {
	return Config{
		NodeSize:             4 << 20,
		BasementSize:         128 << 10,
		Fanout:               16,
		CacheBytes:           1 << 30,
		CheckpointPeriod:     60 * time.Second,
		LogPayloadMax:        512,
		LegacyApplyOnQuery:   false,
		PageSharing:          true,
		ReadAhead:            true,
		CoalesceRangeDeletes: true,
		Lifting:              true,
		Compression:          false,
		RelocateAttempts:     2,
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
