// Package controlplane scales the file service out: a ShardMap routes
// paths across N fsserved instances by longest prefix, a Deployment
// builds the N-shard topology (each shard's file node mounting BetrFS
// over a remote block share served by its own storage node), and a
// Client multiplexes the per-shard wire clients behind the familiar
// single-mount client surface (DESIGN.md §14.5). Everything is built
// from the same deterministic simulated parts as the single-node stack,
// so a fixed-seed multi-shard run is bit-identical run to run.
package controlplane

import (
	"sort"
	"strings"
)

// Route binds one path prefix to a shard index. The empty prefix is the
// catch-all.
type Route struct {
	Prefix string
	Shard  int
}

// ShardMap routes wire paths to shards by longest matching prefix. A
// prefix matches a path when it equals the path or names an ancestor
// directory ("a/b" matches "a/b" and "a/b/c", not "a/bc"). Immutable
// after construction, so lookups need no locking.
type ShardMap struct {
	routes []Route // sorted longest-prefix-first
}

// NewShardMap builds a map over routes for a deployment of shards
// shards. It panics on a route naming a shard out of range or on a
// duplicate prefix, and requires a catch-all ("" prefix) so every path
// routes somewhere — misconfiguration is a wiring bug, not a runtime
// condition.
func NewShardMap(shards int, routes []Route) *ShardMap {
	rs := append([]Route(nil), routes...)
	sort.SliceStable(rs, func(i, j int) bool {
		return len(rs[i].Prefix) > len(rs[j].Prefix)
	})
	seen := make(map[string]bool, len(rs))
	catchall := false
	for _, r := range rs {
		if r.Shard < 0 || r.Shard >= shards {
			panic("controlplane: route shard out of range: " + r.Prefix)
		}
		if seen[r.Prefix] {
			panic("controlplane: duplicate route prefix " + r.Prefix)
		}
		seen[r.Prefix] = true
		if r.Prefix == "" {
			catchall = true
		}
	}
	if !catchall {
		panic("controlplane: shard map needs a catch-all \"\" route")
	}
	return &ShardMap{routes: rs}
}

// Routes returns the routing table, longest prefix first (fsshell
// `shardmap` prints it).
func (m *ShardMap) Routes() []Route { return append([]Route(nil), m.routes...) }

// Route returns the shard owning path.
func (m *ShardMap) Route(path string) int {
	for _, r := range m.routes {
		if r.Prefix == "" || path == r.Prefix ||
			(strings.HasPrefix(path, r.Prefix) && len(path) > len(r.Prefix) && path[len(r.Prefix)] == '/') {
			return r.Shard
		}
	}
	return 0 // unreachable: the catch-all always matches
}

// DefaultRoutes spreads top-level directories "s0" … "s<n-1>" across the
// shards, with shard 0 as the catch-all — the layout the shard bench and
// the worked EXPERIMENTS.md example use.
func DefaultRoutes(shards int) []Route {
	routes := []Route{{Prefix: "", Shard: 0}}
	for i := 0; i < shards; i++ {
		routes = append(routes, Route{Prefix: shardPrefix(i), Shard: i})
	}
	return routes
}

func shardPrefix(i int) string {
	return "s" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
