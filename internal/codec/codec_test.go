package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(math.MaxUint64)
	e.I64(-2)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte("ab"))
	e.String("cd")
	d := NewDecoder(e.Buf)
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := d.U16(); v != 0xbeef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := d.I64(); v != -2 {
		t.Fatalf("I64 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool pair did not read back as true, false")
	}
	if b := d.Take(4); !bytes.Equal(b, []byte("abcd")) {
		t.Fatalf("Take(4) = %q", b)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestTakeBounds checks the lengths a hostile length field can produce:
// negative, one past the end, and the largest int, whose offset sum would
// wrap. Each fails the decoder, which then stays failed.
func TestTakeBounds(t *testing.T) {
	for _, n := range []int{-1, 4, math.MaxInt, math.MinInt} {
		d := NewDecoder([]byte{1, 2, 3})
		d.U8()
		if b := d.Take(n); b != nil {
			t.Fatalf("Take(%d) = %v with 2 bytes left", n, b)
		}
		if !errors.Is(d.Err(), ErrMalformed) {
			t.Fatalf("Take(%d): error %v does not wrap ErrMalformed", n, d.Err())
		}
		if v := d.U8(); v != 0 || d.Len() != 2 {
			t.Fatalf("read after a failure: %d, %d bytes left", v, d.Len())
		}
	}
}

func TestDoneRejects(t *testing.T) {
	for name, in := range map[string][]byte{
		"trailing byte": {0, 0},
		"bool byte 2":   {2},
		"short":         {},
	} {
		d := NewDecoder(in)
		d.Bool()
		if err := d.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Done = %v, want ErrMalformed", name, err)
		}
	}
}
