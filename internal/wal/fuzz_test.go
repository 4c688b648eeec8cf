package wal

import (
	"bytes"
	"errors"
	"testing"

	"betrfs/internal/sim"
)

// FuzzWALRecover feeds the record scan arbitrary region bytes and an
// arbitrary hint: Recover must return records or an error, never panic.
// The same bytes then serve as payloads that Append writes into a small
// log, wrapping and reclaiming as it fills; every record still live must
// recover byte-equal, which pins the on-disk record format that encode
// builds in place. The seed corpus in testdata/fuzz/FuzzWALRecover holds a
// torn record, a bad CRC, a pad record at the wrap, zero-length payloads
// and a hint before the region's start.
func FuzzWALRecover(f *testing.F) {
	f.Add([]byte{}, int64(0), uint64(1), uint32(1))
	f.Fuzz(func(t *testing.T, region []byte, off int64, lsn uint64, epoch uint32) {
		env := sim.NewEnv(1)
		img := &memFile{env: env, data: append([]byte(nil), region...)}
		recs, err := Recover(env, img, Hint{Offset: off, LSN: lsn, Epoch: epoch})
		for i, r := range recs {
			if r.Type == PadType || r.LSN != lsn+uint64(i) {
				t.Fatalf("record %d: type %#x, LSN %d from hint LSN %d", i, r.Type, r.LSN, lsn)
			}
		}
		if err != nil && len(recs) != 0 {
			t.Fatalf("%d records alongside %v from an in-memory region", len(recs), err)
		}

		l := New(env, newMemFile(env, 1024), epoch)
		var live []Record
		for rest := region; len(rest) > 0; {
			n := min(int(rest[0])%160, len(rest)-1)
			rec := Record{Type: RecordType(rest[0] % 3), Payload: rest[1 : 1+n]}
			rest = rest[1+n:]
			var err error
			rec.LSN, err = l.Append(rec.Type, rec.Payload)
			if errors.Is(err, ErrLogFull) {
				l.Reclaim(l.NextLSN())
				live = live[:0]
				rec.LSN, err = l.Append(rec.Type, rec.Payload)
			}
			if err != nil {
				t.Fatalf("append of %d bytes: %v", n, err)
			}
			live = append(live, rec)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := Recover(env, l.f, l.Hint())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(live) {
			t.Fatalf("recovered %d records, want %d", len(got), len(live))
		}
		for i := range got {
			if got[i].LSN != live[i].LSN || got[i].Type != live[i].Type || !bytes.Equal(got[i].Payload, live[i].Payload) {
				t.Fatalf("record %d: got LSN %d type %d %x, want LSN %d type %d %x", i,
					got[i].LSN, got[i].Type, got[i].Payload, live[i].LSN, live[i].Type, live[i].Payload)
			}
		}
	})
}
