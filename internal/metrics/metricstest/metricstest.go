// Package metricstest reads a metrics registry from tests.
package metricstest

import (
	"testing"

	"betrfs/internal/metrics"
)

// Counter returns the value of the counter registered under name. Unlike
// Registry.Counter it never creates one: an unregistered (for example a
// misspelled) name fails the test instead of reading as 0, so an
// "unchanged" or "== 0" assertion cannot pass by accident.
func Counter(t testing.TB, reg *metrics.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter registered as %q", name)
	}
	return v
}
