package comm

import (
	"testing"
	"testing/quick"
)

func hdr(srcPE, srcProc, ctx, tag int32) Header {
	return Header{SrcPE: srcPE, SrcProc: srcProc, Ctx: ctx, Tag: tag}
}

func TestMatchSpecExact(t *testing.T) {
	spec := MatchSpec{SrcPE: 1, SrcProc: 2, Ctx: 3, Tag: 4}
	if !spec.Matches(hdr(1, 2, 3, 4)) {
		t.Error("exact header should match")
	}
	for _, h := range []Header{hdr(9, 2, 3, 4), hdr(1, 9, 3, 4), hdr(1, 2, 9, 4), hdr(1, 2, 3, 9)} {
		if spec.Matches(h) {
			t.Errorf("header %+v should not match %+v", h, spec)
		}
	}
}

func TestMatchSpecWildcards(t *testing.T) {
	if !MatchAll.Matches(hdr(7, 8, 9, 10)) {
		t.Error("MatchAll should match anything")
	}
	spec := MatchSpec{SrcPE: Any, SrcProc: Any, Ctx: 5, Tag: Any}
	if !spec.Matches(hdr(0, 0, 5, 99)) {
		t.Error("ctx-only spec should match any source and tag")
	}
	if spec.Matches(hdr(0, 0, 6, 99)) {
		t.Error("ctx-only spec must still filter ctx")
	}
}

// Property: a spec with all wildcards replaced by the header's own values
// always matches, and flipping any one non-wildcard field breaks the match.
func TestMatchSpecProperty(t *testing.T) {
	f := func(pe, proc, ctx, tag int32, mask uint8) bool {
		pe, proc, ctx, tag = pe&0xffff, proc&0xffff, ctx&0xffff, tag&0xffff
		h := hdr(pe, proc, ctx, tag)
		spec := MatchSpec{SrcPE: pe, SrcProc: proc, Ctx: ctx, Tag: tag}
		if mask&1 != 0 {
			spec.SrcPE = Any
		}
		if mask&2 != 0 {
			spec.SrcProc = Any
		}
		if mask&4 != 0 {
			spec.Ctx = Any
		}
		if mask&8 != 0 {
			spec.Tag = Any
		}
		if !spec.Matches(h) {
			return false
		}
		if spec.Tag != Any {
			bad := spec
			bad.Tag = tag + 1
			if bad.Matches(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func msgWith(h Header, payload string) *Message {
	return &Message{Hdr: h, Data: []byte(payload)}
}

func TestMailboxDeliverToPosted(t *testing.T) {
	mb := NewMatcher()
	h := &RecvHandle{spec: MatchAll, buf: make([]byte, 16)}
	if mb.Post(h, 0) {
		t.Fatal("post with empty unexpected queue reported immediate")
	}
	got, _ := mb.Deliver(msgWith(hdr(1, 0, 2, 3), "hello"), 42)
	if got != h {
		t.Fatal("deliver did not match the posted receive")
	}
	if !h.Done() || string(h.buf[:h.Len()]) != "hello" {
		t.Fatalf("payload not deposited: done=%v data=%q", h.Done(), h.buf[:h.Len()])
	}
	if h.CompletedAt() != 42 {
		t.Fatalf("CompletedAt = %v, want 42", h.CompletedAt())
	}
	if p, u := mb.Depths(); p != 0 || u != 0 {
		t.Fatalf("queues not empty: posted=%d unexpected=%d", p, u)
	}
}

func TestMailboxEarlyArrivalThenPost(t *testing.T) {
	mb := NewMatcher()
	if got, _ := mb.Deliver(msgWith(hdr(1, 0, 2, 3), "early"), 0); got != nil {
		t.Fatal("deliver with no posted receive should buffer")
	}
	h := &RecvHandle{spec: MatchSpec{SrcPE: 1, SrcProc: 0, Ctx: 2, Tag: 3}, buf: make([]byte, 16)}
	if !mb.Post(h, 5) {
		t.Fatal("post should consume the buffered message")
	}
	if string(h.buf[:h.Len()]) != "early" {
		t.Fatalf("got %q", h.buf[:h.Len()])
	}
}

func TestMailboxFIFOAmongUnexpected(t *testing.T) {
	mb := NewMatcher()
	mb.Deliver(msgWith(hdr(1, 0, 2, 3), "first"), 0)
	mb.Deliver(msgWith(hdr(1, 0, 2, 3), "second"), 1)
	h1 := &RecvHandle{spec: MatchAll, buf: make([]byte, 16)}
	h2 := &RecvHandle{spec: MatchAll, buf: make([]byte, 16)}
	mb.Post(h1, 2)
	mb.Post(h2, 2)
	if string(h1.buf[:h1.Len()]) != "first" || string(h2.buf[:h2.Len()]) != "second" {
		t.Fatalf("FIFO violated: %q then %q", h1.buf[:h1.Len()], h2.buf[:h2.Len()])
	}
}

func TestMailboxFIFOAmongPosted(t *testing.T) {
	mb := NewMatcher()
	h1 := &RecvHandle{spec: MatchAll, buf: make([]byte, 16)}
	h2 := &RecvHandle{spec: MatchAll, buf: make([]byte, 16)}
	mb.Post(h1, 0)
	mb.Post(h2, 0)
	mb.Deliver(msgWith(hdr(1, 0, 2, 3), "x"), 1)
	if !h1.Done() || h2.Done() {
		t.Fatal("oldest posted receive must match first")
	}
}

func TestMailboxSelectiveMatch(t *testing.T) {
	mb := NewMatcher()
	hTag7 := &RecvHandle{spec: MatchSpec{SrcPE: Any, SrcProc: Any, Ctx: Any, Tag: 7}, buf: make([]byte, 8)}
	hTag9 := &RecvHandle{spec: MatchSpec{SrcPE: Any, SrcProc: Any, Ctx: Any, Tag: 9}, buf: make([]byte, 8)}
	mb.Post(hTag7, 0)
	mb.Post(hTag9, 0)
	mb.Deliver(msgWith(hdr(0, 0, 0, 9), "nine"), 1)
	if hTag7.Done() {
		t.Fatal("tag-7 receive stole a tag-9 message")
	}
	if !hTag9.Done() {
		t.Fatal("tag-9 receive should have matched")
	}
}

func TestMailboxRemove(t *testing.T) {
	mb := NewMatcher()
	h := &RecvHandle{spec: MatchAll, buf: make([]byte, 8)}
	mb.Post(h, 0)
	if !mb.Remove(h) {
		t.Fatal("remove of pending receive failed")
	}
	if !h.Canceled() {
		t.Fatal("handle not marked canceled")
	}
	if mb.Remove(h) {
		t.Fatal("second remove should report not-pending")
	}
	// A message arriving afterwards must be buffered, not matched.
	if got, _ := mb.Deliver(msgWith(hdr(0, 0, 0, 0), "x"), 1); got != nil {
		t.Fatal("canceled receive still matched")
	}
}

func TestTruncation(t *testing.T) {
	mb := NewMatcher()
	h := &RecvHandle{spec: MatchAll, buf: make([]byte, 3)}
	mb.Post(h, 0)
	mb.Deliver(msgWith(hdr(0, 0, 0, 0), "toolong"), 1)
	if h.Err() != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", h.Err())
	}
	if h.Len() != 3 || string(h.buf) != "too" {
		t.Fatalf("truncated payload wrong: n=%d data=%q", h.Len(), h.buf)
	}
}

func TestFindUnexpected(t *testing.T) {
	mb := NewMatcher()
	mb.Deliver(msgWith(hdr(3, 1, 5, 7), "x"), 0)
	if _, ok := mb.FindUnexpected(MatchSpec{SrcPE: 3, SrcProc: 1, Ctx: 5, Tag: 7}); !ok {
		t.Fatal("probe missed a buffered message")
	}
	if _, ok := mb.FindUnexpected(MatchSpec{SrcPE: 4, SrcProc: Any, Ctx: Any, Tag: Any}); ok {
		t.Fatal("probe matched the wrong source")
	}
	// Probe must not consume.
	if _, u := mb.Depths(); u != 1 {
		t.Fatal("probe consumed the message")
	}
}

// liveBuckets counts the buckets of one side that hold a node.
func liveBuckets[T any](b *buckets[T]) int {
	n := 0
	for _, l := range b.m {
		if l.head != nil {
			n++
		}
	}
	return n
}

// TestMailboxEmptyBucketsBounded checks that retaining emptied buckets (so a
// recurring key costs no map insert or delete) cannot grow the exact-key
// maps without bound: under 100,000 post/match cycles, each on a fresh tag,
// in both orders, each side's map stays within minSweep of its live buckets.
func TestMailboxEmptyBucketsBounded(t *testing.T) {
	for _, postedFirst := range []bool{true, false} {
		m := NewMatcher()
		check := func(i int) {
			t.Helper()
			if n, live := len(m.mb.postExact.m), liveBuckets(&m.mb.postExact); n > minSweep+live {
				t.Fatalf("postedFirst=%v cycle %d: %d posted buckets, %d live", postedFirst, i, n, live)
			}
			if n, live := len(m.mb.umExact.m), liveBuckets(&m.mb.umExact); n > minSweep+live {
				t.Fatalf("postedFirst=%v cycle %d: %d unexpected buckets, %d live", postedFirst, i, n, live)
			}
		}
		buf := make([]byte, 1)
		h := NewRecvHandle(MatchSpec{}, buf)
		for i := 0; i < 100000; i++ {
			RearmHandle(h, MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: int32(i)}, buf)
			msg := &Message{Hdr: Header{SrcPE: 1, Tag: int32(i)}, Data: []byte("x")}
			if postedFirst {
				m.Post(h, 0)
				check(i)
				if got, _ := m.Deliver(msg, 0); got != h {
					t.Fatalf("cycle %d: arrival missed the posted receive", i)
				}
			} else {
				m.Deliver(msg, 0)
				check(i)
				if !m.Post(h, 0) {
					t.Fatalf("cycle %d: post missed the early arrival", i)
				}
			}
			check(i)
		}
	}
}

// Property: no message is ever lost or duplicated through any interleaving
// of posts and deliveries with compatible specs.
func TestMailboxConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		mb := NewMatcher()
		var handles []*RecvHandle
		delivered := 0
		for _, isPost := range ops {
			if isPost {
				h := &RecvHandle{spec: MatchAll, buf: make([]byte, 8)}
				mb.Post(h, 0)
				handles = append(handles, h)
			} else {
				mb.Deliver(msgWith(hdr(0, 0, 0, 0), "m"), 0)
				delivered++
			}
		}
		completed := 0
		for _, h := range handles {
			if h.Done() {
				completed++
			}
		}
		posted, unexpected := mb.Depths()
		// Every delivered message either completed a handle or waits.
		if completed+unexpected != delivered {
			return false
		}
		// Every posted handle either completed or waits.
		return completed+posted == len(handles) &&
			// One side of the match must always be drained.
			(posted == 0 || unexpected == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
