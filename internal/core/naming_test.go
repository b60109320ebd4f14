package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestPackTagRoundtrip(t *testing.T) {
	f := func(thread, tag int32) bool {
		thread &= maxPackedThread
		tag &= (1 << tagBits) - 1
		gotThread, gotTag := unpackTag(packTag(thread, tag))
		return gotThread == thread && gotTag == tag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackTagDistinct(t *testing.T) {
	// Distinct (thread, tag) pairs must map to distinct packed values —
	// the whole point of overloading without ambiguity.
	seen := map[int32][2]int32{}
	for thread := int32(0); thread < 40; thread++ {
		for tag := int32(0); tag < 40; tag++ {
			p := packTag(thread, tag)
			if prev, dup := seen[p]; dup {
				t.Fatalf("collision: (%d,%d) and (%d,%d) both pack to %d",
					thread, tag, prev[0], prev[1], p)
			}
			seen[p] = [2]int32{thread, tag}
		}
	}
}

func TestInternalTagsFitPackedRange(t *testing.T) {
	// Every reserved tag must survive packing with any representable
	// thread id, or internal traffic would corrupt in tagpack mode.
	for _, tag := range []int32{tagRSRRequest, tagDone, tagRelease, tagReplyBase, tagReplyBase + tagReplySpan - 1} {
		if tag < 0 || tag >= 1<<tagBits {
			t.Errorf("reserved tag %#x does not fit in %d tag bits", tag, tagBits)
		}
		gotThread, gotTag := unpackTag(packTag(maxPackedThread, tag))
		if gotThread != maxPackedThread || gotTag != tag {
			t.Errorf("reserved tag %#x corrupted by packing", tag)
		}
	}
	if tagReplyBase+tagReplySpan > tagRSRRequest {
		t.Error("reply-tag window overlaps the RSR request tag")
	}
	if tagReplyBase+tagReplySpan > tagDone {
		t.Error("reply-tag window overlaps the handshake tags")
	}
}

func TestCheckUserTag(t *testing.T) {
	for _, tag := range []int32{0, 1, TagReserved - 1} {
		if err := checkUserTag(tag); err != nil {
			t.Errorf("valid tag %d rejected: %v", tag, err)
		}
	}
	for _, tag := range []int32{-1, -100, TagReserved, tagRSRRequest, 1 << 30} {
		if err := checkUserTag(tag); !errors.Is(err, ErrBadTag) {
			t.Errorf("invalid tag %d accepted (err=%v)", tag, err)
		}
	}
}

func TestGlobalIDEqualAndString(t *testing.T) {
	a := GlobalID{PE: 1, Proc: 2, Thread: 3}
	if !a.Equal(GlobalID{PE: 1, Proc: 2, Thread: 3}) {
		t.Error("equal ids not equal")
	}
	if a.Equal(GlobalID{PE: 1, Proc: 2, Thread: 4}) {
		t.Error("different ids equal")
	}
	if a.String() != "pe1.p2.t3" {
		t.Errorf("String = %q", a.String())
	}
	if a.Addr().PE != 1 || a.Addr().Proc != 2 {
		t.Errorf("Addr = %v", a.Addr())
	}
}

func TestCreateCodecRoundtrip(t *testing.T) {
	f := func(name string, arg []byte, detached bool, prio int16) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		opts := CreateOpts{Detached: detached, Priority: int(prio)}
		req, err := encodeCreate(name, arg, opts)
		if err != nil {
			return false
		}
		gotName, gotArg, gotOpts, err := decodeCreate(req)
		if err != nil {
			return false
		}
		if gotName != name || gotOpts != opts {
			return false
		}
		if len(gotArg) != len(arg) {
			return false
		}
		for i := range arg {
			if gotArg[i] != arg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateCodecRejectsMalformed(t *testing.T) {
	if _, _, _, err := decodeCreate(nil); err == nil {
		t.Error("nil request accepted")
	}
	if _, _, _, err := decodeCreate([]byte{0, 0, 0, 0, 0}); err == nil {
		t.Error("short request accepted")
	}
	// Name length pointing past the buffer.
	bad, _ := encodeCreate("abcdef", nil, CreateOpts{})
	bad[5] = 0xFF
	bad[6] = 0xFF
	if _, _, _, err := decodeCreate(bad); err == nil {
		t.Error("oversized name length accepted")
	}
	// A name the u16 length cannot carry used to be silently truncated.
	if _, err := encodeCreate(strings.Repeat("n", 1<<16), nil, CreateOpts{}); err == nil {
		t.Error("65,536-byte name encoded")
	}
}

func TestJoinValueCodec(t *testing.T) {
	cases := []any{nil, []byte{1, 2, 3}, []byte{}, "hello", "", int64(-42), 7}
	for _, v := range cases {
		got, err := decodeJoinValue(encodeJoinValue(v))
		if err != nil {
			t.Errorf("%v: %v", v, err)
			continue
		}
		switch want := v.(type) {
		case nil:
			if got != nil {
				t.Errorf("nil decoded as %v", got)
			}
		case []byte:
			g, ok := got.([]byte)
			if !ok || len(g) != len(want) {
				t.Errorf("%v decoded as %v", v, got)
			}
		case string:
			if got != want {
				t.Errorf("%q decoded as %v", want, got)
			}
		case int:
			if got != int64(want) {
				t.Errorf("%d decoded as %v", want, got)
			}
		case int64:
			if got != want {
				t.Errorf("%d decoded as %v", want, got)
			}
		}
	}
	// Unmarshalable types cross as their string rendering.
	if got, err := decodeJoinValue(encodeJoinValue(3.14)); err != nil || got != "3.14" {
		t.Errorf("float crossed as (%v, %v)", got, err)
	}
	if _, err := decodeJoinValue(nil); err == nil {
		t.Error("empty join value accepted")
	}
	if _, err := decodeJoinValue([]byte{99}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestReplyCodec(t *testing.T) {
	if data, err := decodeReply(encodeReply(7, []byte("ok"), nil)); err != nil || string(data) != "ok" {
		t.Errorf("success reply: (%q, %v)", data, err)
	}
	if _, err := decodeReply(encodeReply(7, nil, errors.New("boom"))); !errors.Is(err, ErrRemote) {
		t.Errorf("error reply: %v", err)
	}
	for _, short := range [][]byte{nil, {1, 2, 3}, {7, 0, 0, 0}} { // a reply under 5 bytes used to slice out of range in Call
		if _, err := decodeReply(short); !errors.Is(err, ErrRemote) {
			t.Errorf("short reply % x: %v", short, err)
		}
	}
	if wire := encodeReply(0xDEADBEEF, []byte("x"), nil); binary.LittleEndian.Uint32(wire) != 0xDEADBEEF {
		t.Errorf("reply does not echo the request sequence: % x", wire[:rsrReplyPrefix])
	}
}
