package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEnc(0) // a wrong size hint only costs a regrow
	e.U8(7)
	e.Bool(true)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.I32(-2)
	e.U64(1 << 63)
	e.I64(-3)
	e.F64(1.5)
	e.Bytes([]byte("bytes"))
	e.Str("str")
	e.Bytes16(nil)
	e.Str16("s16")
	e.Raw([]byte("tail"))
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	d := NewDec(e.Out())
	if d.U8() != 7 || !d.Bool() || d.U16() != 0xBEEF || d.U32() != 0xDEADBEEF || d.I32() != -2 ||
		d.U64() != 1<<63 || d.I64() != -3 || d.F64() != 1.5 {
		t.Fatal("fixed-width values did not round-trip")
	}
	if string(d.Bytes()) != "bytes" || d.Str() != "str" || d.Bytes16() != nil || d.Str16() != "s16" {
		t.Fatal("length-prefixed values did not round-trip")
	}
	if d.Len() != 4 || string(d.Rest()) != "tail" || d.End() != nil {
		t.Fatalf("tail: %d bytes left, err %v", d.Len(), d.Err())
	}
	if len(d.Rest()) != 0 || d.Err() != nil {
		t.Fatal("Rest of nothing must be empty, not an error")
	}
}

func TestLayoutIsLittleEndianFixedWidth(t *testing.T) {
	e := NewEnc(16)
	e.U16(0x0102)
	e.I32(-1)
	e.Str16("ab")
	e.Bytes([]byte{9})
	want := []byte{2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 'a', 'b', 1, 0, 0, 0, 9}
	if !bytes.Equal(e.Out(), want) {
		t.Fatalf("layout % x, want % x", e.Out(), want)
	}
}

func TestStickyError(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	if d.U32() != 0 || d.Err() != ErrMalformed {
		t.Fatal("a 4-byte read of 3 bytes must fail and return zero")
	}
	// The three bytes are still there, but the decoder stays failed.
	if d.U8() != 0 || d.Take(1) != nil || d.Str16() != "" || d.Bytes() != nil || d.Count(1) != 0 || d.End() == nil {
		t.Fatal("reads after a failure must return zero values")
	}

	d = NewDec([]byte{2})
	if d.Bool() || d.Err() == nil {
		t.Fatal("a bool byte of 2 must be refused")
	}
	d = NewDec([]byte{1, 0})
	if d.U8(); d.Err() != nil || d.End() == nil {
		t.Fatal("End must refuse trailing bytes that Err tolerates")
	}
}

func TestCountsCannotOutrunTheInput(t *testing.T) {
	forged := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}
	d := NewDec(forged)
	if n := d.Count(1); n != 0 || d.Err() == nil {
		t.Fatalf("Count accepted %d elements from 4 bytes", n)
	}
	d = NewDec(forged)
	if n := d.Limit(int(d.U32()), 64); n != 0 || d.Err() == nil {
		t.Fatalf("Limit(64) accepted %d", n)
	}
	d = NewDec([]byte{4, 0, 0, 0, 1, 2, 3, 4})
	if n := d.Count(1); n != 4 || d.Err() != nil {
		t.Fatalf("Count refused 4 one-byte elements in 4 bytes: %d, %v", n, d.Err())
	}
	d = NewDec([]byte{3, 0, 0, 0})
	if n := d.Limit(int(d.U16()), 3); n != 3 || d.Err() != nil {
		t.Fatalf("Limit(3) refused 3: %d, %v", n, d.Err())
	}
	d = NewDec([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // a u32 length with nothing behind it
	if d.Bytes() != nil || d.Err() == nil {
		t.Fatal("Bytes accepted a length the input cannot hold")
	}
}

func TestLen16RefusesWhatU16CannotCarry(t *testing.T) {
	e := NewEnc(0)
	e.Str16(strings.Repeat("x", math.MaxUint16))
	if e.Err() != nil {
		t.Fatal("65,535 bytes fit a u16 length")
	}
	e.Bytes16(make([]byte, math.MaxUint16+1))
	if e.Err() == nil {
		t.Fatal("65,536 bytes were silently truncated to a u16 length")
	}
}

// FuzzDec drives a decoder with an arbitrary method sequence over arbitrary
// input. It must never panic, never hand out more bytes than the input
// holds, never copy more than it was given, and stay zero once failed.
func FuzzDec(f *testing.F) {
	// The forged lengths, counts and bools live in testdata/fuzz/FuzzDec.
	f.Add([]byte{3, 11}, []byte{2, 0, 0, 0, 'o', 'k'})
	f.Fuzz(func(t *testing.T, ops, in []byte) {
		d := NewDec(in)
		copied := 0
		for _, op := range ops {
			before, failed := d.Len(), d.Err() != nil
			zero := true
			switch op % 15 {
			case 0:
				zero = d.U8() == 0
			case 1:
				zero = !d.Bool()
			case 2:
				zero = d.U16() == 0
			case 3:
				zero = d.U32() == 0
			case 4:
				zero = d.I32() == 0
			case 5:
				zero = d.U64() == 0
			case 6:
				zero = d.I64() == 0
			case 7:
				zero = d.F64() == 0
			case 8:
				zero = d.Take(int(op)) == nil
			case 9:
				zero = len(d.Rest()) == 0
			case 10:
				b := d.Bytes()
				copied += len(b)
				zero = b == nil
			case 11:
				zero = d.Str() == ""
			case 12:
				b := d.Bytes16()
				copied += len(b)
				zero = b == nil
			case 13:
				minPer := int(op)/15 + 1
				n := d.Count(minPer)
				if n*minPer > d.Len() {
					t.Fatalf("Count(%d) = %d with %d bytes left", minPer, n, d.Len())
				}
				zero = n == 0
			case 14:
				n := d.Limit(int(d.U32()), int(op))
				if n > int(op) {
					t.Fatalf("Limit(%d) = %d", op, n)
				}
				zero = n == 0
			}
			if d.Len() < 0 || d.Len() > before {
				t.Fatalf("op %d moved Len from %d to %d", op%15, before, d.Len())
			}
			if failed && (!zero || d.Len() != before || d.Err() == nil) {
				t.Fatalf("op %d on a failed decoder read something", op%15)
			}
		}
		if copied > len(in) {
			t.Fatalf("copied %d bytes out of a %d-byte input", copied, len(in))
		}
	})
}
