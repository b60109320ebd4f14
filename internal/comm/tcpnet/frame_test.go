package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"chant/internal/comm"
	"chant/internal/wire"
)

// Writing a frame reuses the connection's prefix buffer and its bufio
// writer: a send adds no allocation.
func TestTCPWriteFrameAllocsNothing(t *testing.T) {
	conn := &countingConn{}
	s := &sender{c: conn, w: bufio.NewWriter(conn)}
	msg := &comm.Message{Hdr: comm.Header{SrcPE: 1, DstPE: 2, Tag: 7, Size: 64}, Data: make([]byte, 64)}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.writeFrame(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writeFrame allocates %.2f times per frame; want 0", allocs)
	}
}

// fuzzMaxFrame is the MaxFrameSize FuzzReadFrame reads under; the committed
// corpus has a frame of exactly this length and one a byte longer.
const fuzzMaxFrame = 256

// FuzzReadFrame reads frames off arbitrary bytes until readFrame fails. A
// frame it accepts re-encodes to the bytes it was read from and declares a
// payload no larger than MaxFrameSize allows; it refuses a length outside
// [header, MaxFrameSize] with errBadLength, and a truncated prefix or header
// with a read error, never errBadLength. The committed corpus
// (testdata/fuzz/FuzzReadFrame) covers the MaxFrameSize bound, a truncated
// header, an oversized and an undersized length, and a heartbeat frame.
func FuzzReadFrame(f *testing.F) {
	e := wire.NewEnc(frameHeadLen + 3)
	putFrameHead(&e, comm.Header{SrcPE: 1, DstPE: 0, Tag: 5, Size: 3}, 3)
	e.Raw([]byte("abc"))
	f.Add(e.Out())
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(in), readBufSize(fuzzMaxFrame))
		for off := 0; ; {
			h, payload, err := readFrame(r, fuzzMaxFrame)
			if err != nil {
				bad := false
				if len(in)-off >= 4 {
					n := binary.LittleEndian.Uint32(in[off:])
					bad = n < wireHeaderLen || n > fuzzMaxFrame
				}
				if bad != errors.Is(err, errBadLength) {
					t.Fatalf("frame at %d: err %v, but the length is bad: %v", off, err, bad)
				}
				return
			}
			if payload < 0 || payload > fuzzMaxFrame-wireHeaderLen {
				t.Fatalf("frame at %d declares a %d-byte payload", off, payload)
			}
			re := wire.NewEnc(frameHeadLen)
			putFrameHead(&re, h, payload)
			if !bytes.Equal(re.Out(), in[off:off+frameHeadLen]) {
				t.Fatalf("frame at %d re-encodes to %x, read from %x", off, re.Out(), in[off:off+frameHeadLen])
			}
			off += frameHeadLen
			skipped, _ := r.Discard(payload)
			if off += skipped; skipped < payload {
				return // truncated payload
			}
		}
	})
}
