// Package wire is the one codec every control-plane byte format in this
// module is written and read with: the RSR envelope and reply frame, the
// global thread operations, the channel broker and its control messages,
// shared-variable fetch/store, AllGather's pack, the body-mode prefix, the
// snapshot marker (all in internal/core) and the checkpoint archive
// (internal/recovery). DESIGN.md's "Wire formats" table lists each layout.
//
// Values are fixed-width little-endian; variable-length fields carry a u32
// (Bytes, Str) or u16 (Bytes16, Str16) length prefix, or run unprefixed to
// the end of the input (Raw, Rest). Enc appends to one output buffer. Dec
// never indexes past its input: a read that would do so, a count the
// remaining bytes cannot justify, or a bool that is neither 0 nor 1 sets a
// sticky error, after which every read returns zero. A caller therefore
// decodes a whole format unconditionally and checks Err (or End, for a
// format with no trailing field) once at the end. Both are plain values meant
// to live on the caller's stack; nothing allocates except the output buffer
// (not even that when NewEncInto's buffer has room) and the copies Bytes hands
// out, and no allocation is sized by an unchecked length.
package wire

import (
	"encoding/binary"
	"math"
)

type malformed struct{}

func (malformed) Error() string { return "wire: truncated or malformed input" }

// ErrMalformed is the error Dec.Err, Dec.End and Enc.Err report.
var ErrMalformed error = malformed{}

// Enc appends encoded values to a buffer.
type Enc struct {
	buf []byte
	bad bool
}

// NewEnc returns an encoder whose buffer starts with room for size bytes;
// writing more than that grows it.
func NewEnc(size int) Enc { return Enc{buf: make([]byte, 0, size)} }

// NewEncInto returns an encoder that writes from the start of buf, reusing
// its array when size bytes fit in it and otherwise starting one with room
// for size bytes, as NewEnc does; writing more than the room grows it. Out
// may alias buf, so a caller reusing one buffer stores Out back as its buf.
func NewEncInto(buf []byte, size int) Enc {
	if cap(buf) < size {
		return NewEnc(size)
	}
	return Enc{buf: buf[:0]}
}

// Out returns the bytes written so far.
func (e *Enc) Out() []byte { return e.buf }

// Err reports a field that did not fit its length prefix (Bytes16, Str16
// over 65,535 bytes): the output is not a valid encoding.
func (e *Enc) Err() error {
	if e.bad {
		return ErrMalformed
	}
	return nil
}

func (e *Enc) U8(v byte) { e.buf = append(e.buf, v) }
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}
func (e *Enc) U16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Enc) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Enc) I32(v int32)   { e.U32(uint32(v)) }
func (e *Enc) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Raw appends v with no length prefix.
func (e *Enc) Raw(v []byte) { e.buf = append(e.buf, v...) }

// Bytes appends v behind a u32 length.
func (e *Enc) Bytes(v []byte) { e.U32(uint32(len(v))); e.Raw(v) }
func (e *Enc) Str(v string)   { e.U32(uint32(len(v))); e.buf = append(e.buf, v...) }

// Bytes16 appends v behind a u16 length; a longer v is an encoding error.
func (e *Enc) Bytes16(v []byte) { e.len16(len(v)); e.Raw(v) }
func (e *Enc) Str16(v string)   { e.len16(len(v)); e.buf = append(e.buf, v...) }

func (e *Enc) len16(n int) {
	if n > math.MaxUint16 {
		e.bad = true
	}
	e.U16(uint16(n))
}

// Dec reads encoded values from a buffer it never writes to or outgrows.
type Dec struct {
	buf []byte
	off int
	bad bool
}

// NewDec returns a decoder over b.
func NewDec(b []byte) Dec { return Dec{buf: b} }

// Len reports how many bytes are still unread.
func (d *Dec) Len() int { return len(d.buf) - d.off }

// Err reports whether any read so far failed.
func (d *Dec) Err() error {
	if d.bad {
		return ErrMalformed
	}
	return nil
}

// End is Err for a format that must be consumed exactly: unread trailing
// bytes are an error too.
func (d *Dec) End() error {
	if d.Len() != 0 {
		d.bad = true
	}
	return d.Err()
}

// Take returns the next n bytes without copying them, or nil (and the sticky
// error) when fewer remain.
func (d *Dec) Take(n int) []byte {
	if d.bad || n < 0 || n > d.Len() {
		d.bad = true
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Dec) U8() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool accepts exactly 0 and 1, so a decoded value re-encodes to its input.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.bad = true
	}
	return v == 1
}
func (d *Dec) U16() uint16 {
	if b := d.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}
func (d *Dec) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}
func (d *Dec) I32() int32 { return int32(d.U32()) }
func (d *Dec) U64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Rest returns every unread byte without copying: the unprefixed tail of a
// format. It is empty, not an error, when nothing remains.
func (d *Dec) Rest() []byte { return d.Take(d.Len()) }

// Bytes reads a u32-prefixed field into a fresh slice (nil when empty, so
// nil and empty round-trip alike).
func (d *Dec) Bytes() []byte { return d.copied(int(d.U32())) }
func (d *Dec) Str() string   { return string(d.Take(int(d.U32()))) }

// Bytes16 and Str16 read a u16-prefixed field.
func (d *Dec) Bytes16() []byte { return d.copied(int(d.U16())) }
func (d *Dec) Str16() string   { return string(d.Take(int(d.U16()))) }

func (d *Dec) copied(n int) []byte {
	b := d.Take(n)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Limit passes a decoded count n through only if 0 <= n <= max, so a forged
// count cannot size an allocation; max is whatever bounds the field — the
// unread input (see Count) or a protocol limit such as a window size.
func (d *Dec) Limit(n, max int) int {
	if d.bad || n < 0 || n > max {
		d.bad = true
		return 0
	}
	return n
}

// Count reads a u32 element count and refuses one the unread input could not
// hold at minPer bytes an element.
func (d *Dec) Count(minPer int) int { return d.Limit(int(d.U32()), d.Len()/minPer) }
