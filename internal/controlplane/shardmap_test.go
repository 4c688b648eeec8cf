package controlplane

import "testing"

func TestShardMapLongestPrefix(t *testing.T) {
	m := NewShardMap(3, []Route{
		{Prefix: "", Shard: 0},
		{Prefix: "a", Shard: 1},
		{Prefix: "a/b", Shard: 2},
	})
	cases := []struct {
		path string
		want int
	}{
		{"", 0},
		{"zzz", 0},
		{"a", 1},
		{"a/x", 1},
		{"a/b", 2},
		{"a/b/c/d", 2},
		{"a/bc", 1}, // "a/b" must not match "a/bc"
		{"ab", 0},   // "a" must not match "ab"
		{"a/b2", 1}, // sibling of "a/b"
		{"A", 0},    // case-sensitive
	}
	for _, c := range cases {
		if got := m.Route(c.path); got != c.want {
			t.Errorf("Route(%q) = %d, want %d", c.path, got, c.want)
		}
	}
}

func TestShardMapValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("no catch-all", func() {
		NewShardMap(2, []Route{{Prefix: "a", Shard: 0}})
	})
	expectPanic("duplicate prefix", func() {
		NewShardMap(2, []Route{{Prefix: "", Shard: 0}, {Prefix: "a", Shard: 0}, {Prefix: "a", Shard: 1}})
	})
	expectPanic("shard out of range", func() {
		NewShardMap(2, []Route{{Prefix: "", Shard: 0}, {Prefix: "a", Shard: 2}})
	})
}

func TestDefaultRoutes(t *testing.T) {
	m := NewShardMap(3, DefaultRoutes(3))
	for i := 0; i < 3; i++ {
		p := shardPrefix(i)
		if got := m.Route(p + "/file"); got != i {
			t.Errorf("Route(%s/file) = %d, want %d", p, got, i)
		}
	}
	if got := m.Route("other/file"); got != 0 {
		t.Errorf("catch-all = %d, want 0", got)
	}
}
