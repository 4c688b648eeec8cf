package bench

import (
	"bytes"
	"testing"

	"betrfs/internal/metrics"
)

// sampleShardDoc is a one-shard document whose row carries the read-cache
// counters and whose roll-up matches it.
func sampleShardDoc() *Doc {
	reg := metrics.NewRegistry()
	reg.Counter("readcache.hit").Add(5)
	reg.Counter("readcache.miss").Add(2)
	reg.Counter("readcache.evict")
	snap := reg.Snapshot()
	return ShardDoc("shard", ShardRun{
		Shards: 1,
		Scale:  2048,
		Rows:   []ShardResult{{Shard: 0, Ops: 40, SimTime: 3e6, P50: 1000, P95: 2000, P99: 4000, RcHit: 5, RcMiss: 2}},
		Snaps:  []metrics.Snapshot{snap},
		Total:  snap,
	})
}

// FuzzValidate feeds arbitrary bytes to Validate. It must never panic, and
// a document it accepts must re-marshal to its input. The seeds are a
// marshalled micro and shard document, which Validate accepts, and a
// truncated document, one with an unknown field and one whose row has
// fewer cells than there are columns, which it rejects.
func FuzzValidate(f *testing.F) {
	marshal := func(d *Doc) []byte {
		b, err := d.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	micro := marshal(sampleDoc())
	short := sampleDoc()
	short.Systems[0].Cells = short.Systems[0].Cells[1:]
	for _, seed := range []struct {
		doc []byte
		ok  bool
	}{
		{micro, true},
		{marshal(sampleShardDoc()), true},
		{micro[:len(micro)/2], false},
		{bytes.Replace(micro, []byte(`"schema_version"`), []byte(`"bogus": 1, "schema_version"`), 1), false},
		{marshal(short), false},
	} {
		if _, err := Validate(seed.doc); (err == nil) != seed.ok {
			f.Fatalf("seed %.60q: Validate returned %v", seed.doc, err)
		}
		f.Add(seed.doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Validate(data)
		if err != nil {
			return
		}
		out, err := d.Marshal()
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		if !bytes.Equal(bytes.TrimRight(out, "\n"), bytes.TrimRight(data, "\n")) {
			t.Fatalf("accepted document re-marshals differently:\n got  %q\n want %q", out, data)
		}
	})
}
