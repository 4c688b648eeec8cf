package betree

import (
	"bytes"
	"errors"
	"testing"

	"betrfs/internal/kmem"
	"betrfs/internal/wal"
)

// malformedLogRecords are CRC-valid redo-log records no encoder writes:
// payloads with a key length cut short, a key past the end, and an update
// offset cut short, each of which once panicked the replayer with an index
// out of range, a record of a type the store never logs, and an update
// logged without its patch, which replay could only drop.
var malformedLogRecords = []wal.Record{
	{Type: opRecord, Payload: []byte{0, 1, 0}},
	{Type: opRecord, Payload: []byte{0, 1, 0, 200, 1, 2}},
	{Type: opRecord, Payload: []byte{0, 1, 0, 0, 0, 0}},
	{Type: opRecord + 1, Payload: encodeLogRecord(false, &Msg{Type: MsgDelete, Key: []byte("k")}, true)},
	{Type: opRecord, Payload: encodeLogRecord(true, &Msg{Type: MsgUpdate, Key: []byte("k"), Off: 8, Val: InlineValue(make([]byte, 600))}, false)},
}

// TestOpenRejectsMalformedLogRecord appends each malformed record to the
// redo log behind a valid insert, flushes it, and remounts: the mount must
// fail with an error wrapping ErrChecksum.
func TestOpenRejectsMalformedLogRecord(t *testing.T) {
	for _, r := range malformedLogRecords {
		env, _, backend, s := corruptStore(t, nil)
		if err := s.Meta().Put([]byte("a"), []byte("1"), LogAuto); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Log().Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Log().Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(env, kmem.New(env, true), s.cfg, backend); !errors.Is(err, ErrChecksum) {
			t.Errorf("record %d %v: Open = %v, want an error wrapping ErrChecksum", r.Type, r.Payload, err)
		}
	}
}

// FuzzReplay feeds arbitrary payloads to the redo-log replayer as one
// operation record. Every payload must give an error wrapping ErrChecksum,
// or apply: a record that carries its value, or has none to carry,
// re-encodes to the same bytes, and a replayed insert is then what a read
// of its key returns. The seed corpus in testdata/fuzz holds the payloads
// of malformedLogRecords and one record per message type built by
// encodeLogRecord (an insert with and one without its value).
func FuzzReplay(f *testing.F) {
	_, s := testStore(f, nil)
	f.Fuzz(func(t *testing.T, p []byte) {
		data, m, logged, derr := decodeLogRecord(p)
		err := s.replay(wal.Record{Type: opRecord, Payload: p})
		if derr != nil || m.Type == MsgUpdate && int(m.Off)+m.Val.Len() > s.cfg.NodeSize {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("malformed record replayed with %v, want an error wrapping ErrChecksum", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed record failed to replay: %v", err)
		}
		if hasValue := m.Type == MsgInsert || m.Type == MsgUpdate; logged || !hasValue {
			if back := encodeLogRecord(data, m, logged); !bytes.Equal(back, p) {
				t.Fatalf("record re-encodes as %v, want %v", back, p)
			}
		}
		if m.Type == MsgInsert && logged {
			tree := s.meta
			if data {
				tree = s.data
			}
			got, ok, err := tree.Get(m.Key)
			if err != nil || !ok || !bytes.Equal(got, m.Val.Bytes()) {
				t.Fatalf("Get after replayed insert = %q, %v, %v; want %q", got, ok, err, m.Val.Bytes())
			}
		}
	})
}
