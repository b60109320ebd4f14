package recovery

import (
	"errors"
	"fmt"

	"chant/internal/comm"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/wire"
)

// The archive format: a 4-byte magic (the last byte is the format version),
// then every checkpoint field in declaration order as fixed-width
// little-endian values. Variable-length sections are length-prefixed with
// uint32 counts. There is no compression and no map in sight: the same
// Checkpoint value always yields the same bytes, which the determinism test
// pins. This file holds only the layout — which field follows which; every
// primitive read and write, and with it every bounds check, is
// internal/wire's, and FuzzDecodeCheckpoint holds Decode to "ErrCorrupt or a
// value that re-encodes to its input".

const codecMagic = "CKP\x01"

// ErrCorrupt reports a checkpoint blob that does not decode.
var ErrCorrupt = errors.New("recovery: corrupt checkpoint encoding")

func putAddr(e *wire.Enc, a comm.Addr) { e.I32(a.PE); e.I32(a.Proc) }

func getAddr(d *wire.Dec) comm.Addr { return comm.Addr{PE: d.I32(), Proc: d.I32()} }

func putHeader(e *wire.Enc, h comm.Header) {
	for _, v := range [...]int32{h.SrcPE, h.SrcProc, h.SrcThread, h.DstPE, h.DstProc, h.Ctx, h.Tag, h.Size, h.Flags} {
		e.I32(v)
	}
}

func getHeader(d *wire.Dec) (h comm.Header) {
	for _, p := range [...]*int32{&h.SrcPE, &h.SrcProc, &h.SrcThread, &h.DstPE, &h.DstProc, &h.Ctx, &h.Tag, &h.Size, &h.Flags} {
		*p = d.I32()
	}
	return h
}

func putMsg(e *wire.Enc, m CapturedMessage) {
	putHeader(e, m.Hdr)
	e.Bytes(m.Data)
	e.I64(int64(m.SentAt))
}

func getMsg(d *wire.Dec) CapturedMessage {
	return CapturedMessage{Hdr: getHeader(d), Data: d.Bytes(), SentAt: sim.Time(d.I64())}
}

// putSnapshot writes every trace.Snapshot field in declaration order: the
// event counters through trace's one field table, then the two waiting-thread
// statistics. TestSnapshotCodecComplete keeps it complete.
func putSnapshot(e *wire.Enc, s trace.Snapshot) {
	for _, f := range trace.SnapshotFields {
		if f.Count != nil {
			e.U64(*f.Count(&s))
		}
	}
	e.F64(s.AvgWaiting)
	e.I64(int64(s.MaxWaiting))
}

func getSnapshot(d *wire.Dec) (s trace.Snapshot) {
	for _, f := range trace.SnapshotFields {
		if f.Count != nil {
			*f.Count(&s) = d.U64()
		}
	}
	s.AvgWaiting = d.F64()
	s.MaxWaiting = int(d.I64())
	return s
}

// Encode serializes cp to its canonical byte form. Encoding the same value
// twice yields identical bytes.
func Encode(cp *Checkpoint) []byte {
	e := wire.NewEnc(256)
	e.Raw([]byte(codecMagic))
	putAddr(&e, cp.Addr)
	e.U32(cp.Epoch)
	e.I64(int64(cp.At))
	e.U32(uint32(len(cp.Handlers)))
	for _, id := range cp.Handlers {
		e.I32(id)
	}
	e.I32(cp.NextReq)
	e.U32(uint32(len(cp.Dedup)))
	for _, r := range cp.Dedup {
		e.I32(r.SrcPE)
		e.I32(r.SrcProc)
		e.I32(r.SrcThread)
		e.U32(r.Epoch)
		e.U32(r.Seq)
		e.I32(r.ReplyTag)
		e.Bool(r.HasReply)
		e.Bytes(r.Reply)
	}
	e.U32(uint32(len(cp.Shared)))
	for _, s := range cp.Shared {
		e.Str(s.Name)
		e.Bytes(s.Value)
		e.I64(s.Version)
		e.Bool(s.Valid)
		e.Bool(s.Home)
		e.U32(uint32(len(s.Directory)))
		for _, a := range s.Directory {
			putAddr(&e, a)
		}
	}
	e.U32(uint32(len(cp.Unexpected)))
	for _, m := range cp.Unexpected {
		putMsg(&e, m)
	}
	e.U32(uint32(len(cp.InFlight)))
	for _, m := range cp.InFlight {
		putMsg(&e, m)
	}
	putSnapshot(&e, cp.Counters)
	return e.Out()
}

// Decode parses a checkpoint from its canonical byte form.
func Decode(buf []byte) (*Checkpoint, error) {
	d := wire.NewDec(buf)
	if string(d.Take(len(codecMagic))) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	cp := &Checkpoint{}
	cp.Addr = getAddr(&d)
	cp.Epoch = d.U32()
	cp.At = sim.Time(d.I64())
	if n := d.Count(4); n > 0 {
		cp.Handlers = make([]int32, n)
		for i := range cp.Handlers {
			cp.Handlers[i] = d.I32()
		}
	}
	cp.NextReq = d.I32()
	if n := d.Count(4*4 + 4 + 1 + 4); n > 0 {
		cp.Dedup = make([]DedupState, n)
		for i := range cp.Dedup {
			r := &cp.Dedup[i]
			r.SrcPE = d.I32()
			r.SrcProc = d.I32()
			r.SrcThread = d.I32()
			r.Epoch = d.U32()
			r.Seq = d.U32()
			r.ReplyTag = d.I32()
			r.HasReply = d.Bool()
			r.Reply = d.Bytes()
		}
	}
	if n := d.Count(4 + 4 + 8 + 2 + 4); n > 0 {
		cp.Shared = make([]SharedState, n)
		for i := range cp.Shared {
			s := &cp.Shared[i]
			s.Name = d.Str()
			s.Value = d.Bytes()
			s.Version = d.I64()
			s.Valid = d.Bool()
			s.Home = d.Bool()
			if m := d.Count(8); m > 0 {
				s.Directory = make([]comm.Addr, m)
				for j := range s.Directory {
					s.Directory[j] = getAddr(&d)
				}
			}
		}
	}
	const msgMin = 9*4 + 4 + 8
	if n := d.Count(msgMin); n > 0 {
		cp.Unexpected = make([]CapturedMessage, n)
		for i := range cp.Unexpected {
			cp.Unexpected[i] = getMsg(&d)
		}
	}
	if n := d.Count(msgMin); n > 0 {
		cp.InFlight = make([]CapturedMessage, n)
		for i := range cp.InFlight {
			cp.InFlight[i] = getMsg(&d)
		}
	}
	cp.Counters = getSnapshot(&d)
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: truncated or malformed field", ErrCorrupt)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Len())
	}
	return cp, nil
}
