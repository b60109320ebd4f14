package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
)

// Differential property test: the bucketed matching engine (Matcher) must be
// observationally identical to the seed's linear reference (RefMatcher) on
// every operation stream — same immediate/deferred results, same match
// order, same drops, same probe answers, same queue depths and contents,
// and identical terminal handle states. Half of the arrivals, drawn by the
// seed, reach the engine as a borrowed buffer rather than an owned message,
// so both forms of the one arrival body are held to the reference. Any
// divergence is a bug in the bucketed engine.

// twin is one logical receive posted to both engines.
type twin struct {
	a, b   *RecvHandle // a drives Matcher, b drives RefMatcher
	gone   bool        // removed/failed/completed: no longer posted anywhere
	posted bool
}

// randSpec draws a spec over a small domain so exact hits, wildcard hits,
// and misses all occur frequently.
func randSpec(r *rand.Rand) MatchSpec {
	field := func() int32 {
		if r.Intn(3) == 0 {
			return Any
		}
		return int32(r.Intn(2))
	}
	return MatchSpec{SrcPE: field(), SrcProc: field(), SrcThread: field(), Ctx: field(), Tag: field()}
}

func randHeader(r *rand.Rand) Header {
	f := func() int32 { return int32(r.Intn(2)) }
	return Header{SrcPE: f(), SrcProc: f(), SrcThread: f(), Ctx: f(), Tag: f()}
}

func sameHandleState(x, y *RecvHandle) error {
	if x.Done() != y.Done() {
		return fmt.Errorf("done %v vs %v", x.Done(), y.Done())
	}
	if x.Canceled() != y.Canceled() {
		return fmt.Errorf("canceled %v vs %v", x.Canceled(), y.Canceled())
	}
	if !x.Done() {
		return nil
	}
	if x.Header() != y.Header() {
		return fmt.Errorf("header %+v vs %+v", x.Header(), y.Header())
	}
	if x.Len() != y.Len() {
		return fmt.Errorf("len %d vs %d", x.Len(), y.Len())
	}
	if x.Err() != y.Err() {
		return fmt.Errorf("err %v vs %v", x.Err(), y.Err())
	}
	if x.Status() != y.Status() {
		return fmt.Errorf("status %v vs %v", x.Status(), y.Status())
	}
	if x.CompletedAt() != y.CompletedAt() {
		return fmt.Errorf("completedAt %v vs %v", x.CompletedAt(), y.CompletedAt())
	}
	if !bytes.Equal(x.buf[:x.Len()], y.buf[:y.Len()]) {
		return fmt.Errorf("payload %q vs %q", x.buf[:x.Len()], y.buf[:y.Len()])
	}
	return nil
}

// sameUnexpected compares the two engines' unexpected queues entry by
// entry, in arrival order: header, payload and send stamp.
func sameUnexpected(m *Matcher, ref *RefMatcher) error {
	i := 0
	var err error
	m.mb.snapshotUnexpected(func(hdr Header, data []byte, sentAt sim.Time) {
		switch {
		case err != nil:
		case i >= len(ref.unexpected):
			err = fmt.Errorf("extra entry %d %+v", i, hdr)
		case hdr != ref.unexpected[i].Hdr || !bytes.Equal(data, ref.unexpected[i].Data) || sentAt != ref.unexpected[i].SentAt:
			x := ref.unexpected[i]
			err = fmt.Errorf("entry %d: (%+v, %q, %v) vs (%+v, %q, %v)", i, hdr, data, sentAt, x.Hdr, x.Data, x.SentAt)
		}
		i++
	})
	if err == nil && i != len(ref.unexpected) {
		err = fmt.Errorf("%d entries vs %d", i, len(ref.unexpected))
	}
	return err
}

func TestMatcherDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			m := NewMatcher()
			ref := &RefMatcher{}
			if seed%3 == 0 {
				m.SetUnexpectedCap(4)
				ref.UnexpectedCap = 4
			}
			var twins []*twin
			index := map[*RecvHandle]int{} // either engine's handle → twin slot
			now := sim.Time(0)

			// live picks a random still-posted twin, or nil.
			live := func() *twin {
				var cands []*twin
				for _, tw := range twins {
					if tw.posted && !tw.gone && !tw.a.Done() {
						cands = append(cands, tw)
					}
				}
				if len(cands) == 0 {
					return nil
				}
				return cands[r.Intn(len(cands))]
			}

			for op := 0; op < 600; op++ {
				now++
				switch r.Intn(10) {
				case 0, 1, 2: // post a receive
					spec := randSpec(r)
					tw := &twin{
						a: NewRecvHandle(spec, make([]byte, 8)),
						b: NewRecvHandle(spec, make([]byte, 8)),
					}
					ia := m.Post(tw.a, now)
					ib := ref.Post(tw.b, now)
					if ia != ib {
						t.Fatalf("op %d: Post immediate %v vs %v (spec %+v)", op, ia, ib, spec)
					}
					tw.posted = !ia
					tw.gone = ia
					twins = append(twins, tw)
					index[tw.a] = len(twins) - 1
					index[tw.b] = len(twins) - 1
					if ia {
						if err := sameHandleState(tw.a, tw.b); err != nil {
							t.Fatalf("op %d: immediate post diverged: %v", op, err)
						}
					}
				case 3, 4, 5: // deliver a message, owned or borrowed
					h := randHeader(r)
					payload := []byte(fmt.Sprintf("m%d", op%7))
					sentAt := now - 1 // the sender's clock, behind the receiver's
					var ga *RecvHandle
					var da bool
					if r.Intn(2) == 0 {
						// The sender's buffer, stamped by the sender's clock if
						// queued and overwritten once the call returns: a
						// queued copy must not alias it.
						m.at = callTime(now)
						from := newFakeHost(machine.Modern())
						from.now = sentAt
						borrowed := append([]byte(nil), payload...)
						ga, da = m.mb.arrive(h, borrowed, nil, from)
						copy(borrowed, "##")
					} else {
						ga, da = m.Deliver(&Message{Hdr: h, Data: payload, SentAt: sentAt}, now)
					}
					gb, db := ref.Deliver(&Message{Hdr: h, Data: append([]byte(nil), payload...), SentAt: sentAt}, now)
					if da != db {
						t.Fatalf("op %d: Deliver dropped %v vs %v", op, da, db)
					}
					if (ga == nil) != (gb == nil) {
						t.Fatalf("op %d: Deliver matched %v vs %v (hdr %+v)", op, ga != nil, gb != nil, h)
					}
					if ga != nil {
						if index[ga] != index[gb] {
							t.Fatalf("op %d: match order diverged: twin %d vs %d", op, index[ga], index[gb])
						}
						tw := twins[index[ga]]
						tw.gone = true
						if err := sameHandleState(tw.a, tw.b); err != nil {
							t.Fatalf("op %d: delivered handles diverged: %v", op, err)
						}
					}
				case 6: // cancel a posted receive
					if tw := live(); tw != nil {
						ra := m.Remove(tw.a)
						rb := ref.Remove(tw.b)
						if ra != rb {
							t.Fatalf("op %d: Remove %v vs %v", op, ra, rb)
						}
						if ra {
							tw.gone = true
						}
					}
				case 7: // withdraw-and-fail a posted receive
					if tw := live(); tw != nil {
						ra := m.RemoveFailed(tw.a, ErrTimeout, StatusTimedOut, now)
						rb := ref.RemoveFailed(tw.b, ErrTimeout, StatusTimedOut, now)
						if ra != rb {
							t.Fatalf("op %d: RemoveFailed %v vs %v", op, ra, rb)
						}
						if ra {
							tw.gone = true
							if err := sameHandleState(tw.a, tw.b); err != nil {
								t.Fatalf("op %d: failed handles diverged: %v", op, err)
							}
						}
					}
				case 8: // fail everything pinned to a peer
					peer := Addr{PE: int32(r.Intn(2)), Proc: int32(r.Intn(2))}
					na := m.FailPeer(peer, now)
					nb := ref.FailPeer(peer, now)
					if na != nb {
						t.Fatalf("op %d: FailPeer(%v) failed %d vs %d", op, peer, na, nb)
					}
					for _, tw := range twins {
						if tw.posted && !tw.gone && tw.a.Done() {
							tw.gone = true
						}
					}
				case 9: // probe the unexpected queue
					spec := randSpec(r)
					ha, oka := m.FindUnexpected(spec)
					hb, okb := ref.FindUnexpected(spec)
					if oka != okb || ha != hb {
						t.Fatalf("op %d: FindUnexpected (%+v,%v) vs (%+v,%v)", op, ha, oka, hb, okb)
					}
				}
				pa, ua := m.Depths()
				pb, ub := ref.Depths()
				if pa != pb || ua != ub {
					t.Fatalf("op %d: depths (%d,%d) vs (%d,%d)", op, pa, ua, pb, ub)
				}
				if err := sameUnexpected(m, ref); err != nil {
					t.Fatalf("op %d: unexpected queues diverged: %v", op, err)
				}
			}

			// Terminal sweep: every twin ends in an identical state.
			for i, tw := range twins {
				if err := sameHandleState(tw.a, tw.b); err != nil {
					t.Fatalf("twin %d diverged at end: %v", i, err)
				}
			}
		})
	}
}

// Non-overtaking: among posted receives whose specs both accept a message,
// the one posted first must win, even when one is an exact-key bucket entry
// and the other a wildcard — the seq tiebreak crosses the two index classes.
func TestMatcherExactWildcardOrder(t *testing.T) {
	mk := func() (*RecvHandle, *RecvHandle) {
		wild := NewRecvHandle(MatchSpec{SrcPE: Any, SrcProc: Any, SrcThread: Any, Ctx: Any, Tag: 7}, make([]byte, 8))
		exact := NewRecvHandle(MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: 7}, make([]byte, 8))
		return wild, exact
	}
	msg := func() *Message {
		return &Message{Hdr: Header{SrcPE: 1, Tag: 7}, Data: []byte("x")}
	}

	// Wildcard posted first wins.
	m := NewMatcher()
	wild, exact := mk()
	m.Post(wild, 0)
	m.Post(exact, 0)
	if got, _ := m.Deliver(msg(), 1); got != wild {
		t.Fatal("earlier wildcard receive was overtaken by a later exact one")
	}

	// Exact posted first wins.
	m = NewMatcher()
	wild, exact = mk()
	m.Post(exact, 0)
	m.Post(wild, 0)
	if got, _ := m.Deliver(msg(), 1); got != exact {
		t.Fatal("earlier exact receive was overtaken by a later wildcard one")
	}
}
