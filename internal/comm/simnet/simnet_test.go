package simnet

import (
	"errors"
	"testing"

	"chant/internal/comm"
	"chant/internal/faults"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// rig builds a kernel, a network, and n endpoints, one PE process each.
// The returned start function spawns the per-PE bodies and runs the kernel.
type rig struct {
	k     *sim.Kernel
	model *machine.Model
	net   *Network
	eps   []*comm.Endpoint
	ctrs  []*trace.Counters
}

func newRig(t *testing.T, n int, model *machine.Model) (*rig, func(bodies ...func(ep *comm.Endpoint))) {
	t.Helper()
	r := &rig{k: sim.NewKernel(), model: model}
	r.net = New(r.k, model)
	start := func(bodies ...func(ep *comm.Endpoint)) {
		if len(bodies) != n {
			t.Fatalf("rig: %d bodies for %d endpoints", len(bodies), n)
		}
		for i, body := range bodies {
			i, body := i, body
			r.k.Spawn("pe", func(p *sim.Proc) {
				host := machine.NewSimHost(p, model)
				ctrs := &trace.Counters{}
				ep := r.net.NewEndpoint(comm.Addr{PE: int32(i), Proc: 0}, host, ctrs)
				r.eps = append(r.eps, ep)
				r.ctrs = append(r.ctrs, ctrs)
				body(ep)
			})
		}
		if err := r.k.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	return r, start
}

func TestSimnetLatencyModel(t *testing.T) {
	model := machine.Paragon1994()
	_, start := newRig(t, 2, model)
	const size = 1024
	var sentAt, gotAt sim.Time
	start(
		func(ep *comm.Endpoint) {
			sentAt = ep.Host().Now()
			ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 7, 0, make([]byte, size))
		},
		func(ep *comm.Endpoint) {
			buf := make([]byte, size)
			n, hdr, err := ep.Recv(comm.MatchAll, buf)
			if err != nil || n != size || hdr.Tag != 7 {
				t.Errorf("recv: n=%d tag=%d err=%v", n, hdr.Tag, err)
			}
			gotAt = ep.Host().Now()
		},
	)
	// Receiver observes the message at send-completion + wire latency,
	// plus its own receive overhead.
	want := sentAt.Add(model.SendOverhead + model.MsgLatency(size) + model.RecvOverhead)
	if gotAt != want {
		t.Fatalf("receive finished at %v, want %v", gotAt, want)
	}
}

func TestSimnetNonOvertaking(t *testing.T) {
	model := machine.Paragon1994()
	_, start := newRig(t, 2, model)
	const n = 20
	var order []byte
	start(
		func(ep *comm.Endpoint) {
			for i := 0; i < n; i++ {
				ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, []byte{byte(i)})
			}
		},
		func(ep *comm.Endpoint) {
			for i := 0; i < n; i++ {
				buf := make([]byte, 1)
				ep.Recv(comm.MatchAll, buf)
				order = append(order, buf[0])
			}
		},
	)
	for i := 0; i < n; i++ {
		if order[i] != byte(i) {
			t.Fatalf("messages overtook: order=%v", order)
		}
	}
}

func TestSimnetBidirectionalExchange(t *testing.T) {
	model := machine.Paragon1994()
	r, start := newRig(t, 2, model)
	const rounds = 50
	body := func(peer int32) func(ep *comm.Endpoint) {
		return func(ep *comm.Endpoint) {
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				ep.Send(comm.Addr{PE: peer, Proc: 0}, 0, 1, 0, make([]byte, 64))
				ep.Recv(comm.MatchAll, buf)
			}
		}
	}
	start(body(1), body(0))
	for i, c := range r.ctrs {
		if c.Sends.Load() != rounds || c.Recvs.Load() != rounds {
			t.Fatalf("pe%d: sends=%d recvs=%d, want %d each",
				i, c.Sends.Load(), c.Recvs.Load(), rounds)
		}
	}
}

func TestSimnetLoopback(t *testing.T) {
	model := machine.Paragon1994()
	_, start := newRig(t, 1, model)
	var rtt sim.Duration
	start(func(ep *comm.Endpoint) {
		t0 := ep.Host().Now()
		ep.Send(comm.Addr{PE: 0, Proc: 0}, 0, 1, 0, []byte("self"))
		buf := make([]byte, 8)
		ep.Recv(comm.MatchAll, buf)
		rtt = ep.Host().Now().Sub(t0)
	})
	remote := model.MsgLatency(4)
	if rtt <= 0 || sim.Duration(rtt) >= remote {
		t.Fatalf("loopback took %v; want positive and below remote latency %v", rtt, remote)
	}
}

func TestSimnetIrecvBeforeArrivalAvoidsCopy(t *testing.T) {
	model := machine.Paragon1994()
	r, start := newRig(t, 2, model)
	start(
		func(ep *comm.Endpoint) {
			// Delay the send so the receiver's irecv is posted first.
			ep.Host().Charge(10 * sim.Millisecond)
			ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, make([]byte, 128))
		},
		func(ep *comm.Endpoint) {
			h := ep.Irecv(comm.MatchAll, make([]byte, 128))
			ep.Wait(h)
		},
	)
	recvCtrs := r.ctrs[1]
	if recvCtrs.EarlyArrivals.Load() != 0 {
		t.Fatal("pre-posted receive still counted an early arrival")
	}
	if recvCtrs.RecvImmediate.Load() != 0 {
		t.Fatal("pre-posted receive counted as immediate")
	}
}

func TestSimnetUnknownDestinationPanics(t *testing.T) {
	model := machine.Paragon1994()
	_, start := newRig(t, 1, model)
	start(func(ep *comm.Endpoint) {
		defer func() {
			if recover() == nil {
				t.Error("send to unregistered process did not panic")
			}
		}()
		ep.Send(comm.Addr{PE: 99, Proc: 0}, 0, 1, 0, []byte("x"))
	})
}

func TestSimnetDuplicateEndpointPanics(t *testing.T) {
	k := sim.NewKernel()
	model := machine.Paragon1994()
	net := New(k, model)
	k.Spawn("pe", func(p *sim.Proc) {
		host := machine.NewSimHost(p, model)
		net.NewEndpoint(comm.Addr{PE: 0, Proc: 0}, host, &trace.Counters{})
		defer func() {
			if recover() == nil {
				t.Error("duplicate endpoint did not panic")
			}
		}()
		net.NewEndpoint(comm.Addr{PE: 0, Proc: 0}, host, &trace.Counters{})
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestMeshHopLatency(t *testing.T) {
	model := machine.Paragon1994()
	// One-way delivery times on a 3x3 mesh: pe0 -> pe1 is one hop,
	// pe0 -> pe8 is four hops (corner to corner).
	measure := func(dstPE int32) sim.Duration {
		k := sim.NewKernel()
		net := New(k, model)
		net.MeshWidth = 3
		var arrival sim.Time
		var eps []*comm.Endpoint
		var procs []*sim.Proc
		for pe := int32(0); pe < 9; pe++ {
			pe := pe
			procs = append(procs, k.Spawn("pe", func(p *sim.Proc) {
				host := machine.NewSimHost(p, model)
				ep := net.NewEndpoint(comm.Addr{PE: pe, Proc: 0}, host, &trace.Counters{})
				eps = append(eps, ep)
				p.WaitSignal()
				switch pe {
				case 0:
					ep.Send(comm.Addr{PE: dstPE, Proc: 0}, 0, 1, 0, make([]byte, 64))
				case dstPE:
					buf := make([]byte, 64)
					ep.Recv(comm.MatchAll, buf)
					arrival = host.Now()
				}
			}))
		}
		k.At(0, func() {
			for _, p := range procs {
				p.Signal()
			}
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return arrival.Sub(0)
	}
	near := measure(1)
	far := measure(8)
	wantExtra := model.NetPerHop.Scale(3) // 4 hops vs 1 hop
	if got := far - near; got != wantExtra {
		t.Fatalf("corner-to-corner extra latency = %v, want %v", got, wantExtra)
	}
}

func TestMeshHopsFunction(t *testing.T) {
	n := &Network{MeshWidth: 4}
	cases := []struct {
		src, dst int32
		want     int
	}{
		{0, 0, 1},  // same PE: local fabric
		{0, 1, 1},  // adjacent X
		{0, 4, 1},  // adjacent Y
		{0, 5, 2},  // diagonal
		{0, 15, 6}, // corner to corner on 4x4
		{3, 12, 6},
	}
	for _, c := range cases {
		if got := n.hops(c.src, c.dst); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	flat := &Network{}
	if flat.hops(0, 15) != 1 {
		t.Error("flat network should be distance-independent")
	}
}

func TestSimnetFaultPlanDropAndTimeout(t *testing.T) {
	model := machine.Paragon1994()
	r, start := newRig(t, 2, model)
	r.net.Faults = faults.New(faults.Config{Default: faults.LinkRates{DropProb: 1}}, 11)
	var err error
	var status comm.Status
	start(
		func(ep *comm.Endpoint) {
			ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 7, 0, make([]byte, 64))
		},
		func(ep *comm.Endpoint) {
			h := ep.Irecv(comm.MatchAll, make([]byte, 64))
			// Each missed Test charges virtual time, so the loop reaches
			// the deadline; TimeoutRecv then fails the receive unless it
			// completed.
			deadline := ep.Host().Now().Add(50 * sim.Millisecond)
			for !ep.Test(h) && ep.Host().Now() < deadline {
			}
			ep.TimeoutRecv(h)
			err, status = h.Err(), h.Status()
		},
	)
	if !errors.Is(err, comm.ErrTimeout) || status != comm.StatusTimedOut {
		t.Fatalf("receive of a dropped message: %v (%v), want ErrTimeout", err, status)
	}
	if got := r.ctrs[1].RecvTimeouts.Load(); got != 1 {
		t.Errorf("receiver RecvTimeouts = %d, want 1", got)
	}
	if got := r.ctrs[0].FaultDrops.Load(); got != 1 {
		t.Errorf("sender FaultDrops = %d, want 1", got)
	}
	if got := r.net.Faults.Stats().Drops; got != 1 {
		t.Errorf("plan Drops = %d, want 1", got)
	}
}

func TestSimnetFaultPlanDuplicates(t *testing.T) {
	model := machine.Paragon1994()
	r, start := newRig(t, 2, model)
	r.net.Faults = faults.New(faults.Config{
		Default: faults.LinkRates{DupProb: 1, DelayMax: 100 * sim.Microsecond},
	}, 11)
	var copies int
	start(
		func(ep *comm.Endpoint) {
			ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 7, 0, []byte("twin"))
		},
		func(ep *comm.Endpoint) {
			buf := make([]byte, 8)
			for i := 0; i < 2; i++ {
				if _, _, err := ep.Recv(comm.MatchAll, buf); err == nil {
					copies++
				}
			}
		},
	)
	if copies != 2 {
		t.Fatalf("received %d copies of a duplicated message, want 2", copies)
	}
	if got := r.ctrs[0].FaultDups.Load(); got != 1 {
		t.Errorf("sender FaultDups = %d, want 1", got)
	}
}

// TestSimnetDuplicateSurvivesRelease checks that a fault-injected duplicate
// owns its payload. The original is a pooled message: the mailbox recycles
// it once it is deposited, and whoever draws its buffer from the pool next
// writes over it. The duplicate arrives later and must still carry the
// bytes that were sent.
func TestSimnetDuplicateSurvivesRelease(t *testing.T) {
	model := machine.Paragon1994()
	r, start := newRig(t, 2, model)
	r.net.Faults = faults.New(faults.Config{
		Default: faults.LinkRates{DupProb: 1, DelayMax: 100 * sim.Microsecond},
	}, 11)
	var orig *comm.Message
	var sent, second []byte
	start(
		func(ep *comm.Endpoint) {
			ep.Host().Charge(10 * sim.Microsecond) // the receiver attaches first
			orig = comm.GetPooledMessage(4)
			copy(orig.Data, "twin")
			sent = orig.Data
			orig.Hdr = comm.Header{SrcPE: 0, DstPE: 1, Tag: 7, Size: 4}
			orig.SentAt = ep.Host().Now()
			r.net.Deliver(orig)
		},
		func(ep *comm.Endpoint) {
			buf := make([]byte, 8)
			if _, _, err := ep.Recv(comm.MatchAll, buf); err != nil {
				t.Error(err)
				return
			}
			if len(orig.Data) != 0 {
				t.Error("the original was not released at its deposit; the test is vacuous")
			}
			copy(sent, "gone") // the buffer's next owner
			n, _, err := ep.Recv(comm.MatchAll, buf)
			if err != nil {
				t.Error(err)
				return
			}
			second = append([]byte(nil), buf[:n]...)
		},
	)
	if string(second) != "twin" {
		t.Fatalf("duplicate carried %q, want %q: it shared the released original's buffer", second, "twin")
	}
}

func TestSimnetFaultPlanPartition(t *testing.T) {
	model := machine.Paragon1994()
	r, start := newRig(t, 2, model)
	// The link is cut for the first 10ms of the run, then heals.
	r.net.Faults = faults.New(faults.Config{
		Cuts: []faults.Cut{{A: 0, B: 1, From: 0, To: sim.Time(10 * sim.Millisecond)}},
	}, 11)
	var gotLate bool
	start(
		func(ep *comm.Endpoint) {
			ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, []byte("lost"))
			ep.Host().Charge(20 * sim.Millisecond)
			ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 2, 0, []byte("healed"))
		},
		func(ep *comm.Endpoint) {
			buf := make([]byte, 8)
			_, hdr, err := ep.Recv(comm.MatchAll, buf)
			gotLate = err == nil && hdr.Tag == 2
		},
	)
	if !gotLate {
		t.Fatal("message after the partition healed did not arrive (or the cut one leaked through)")
	}
	if got := r.net.Faults.Stats().PartitionDrops; got != 1 {
		t.Errorf("PartitionDrops = %d, want 1", got)
	}
}

// TestSimnetFaultDelayCharges checks injected delay jitter shows up as
// extra latency on the wire.
func TestSimnetFaultPlanDelay(t *testing.T) {
	model := machine.Paragon1994()
	const extra = 2 * sim.Millisecond
	measure := func(plan *faults.Plan) sim.Time {
		r, start := newRig(t, 2, model)
		r.net.Faults = plan
		var arrival sim.Time
		start(
			func(ep *comm.Endpoint) {
				ep.Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, make([]byte, 64))
			},
			func(ep *comm.Endpoint) {
				buf := make([]byte, 64)
				ep.Recv(comm.MatchAll, buf)
				arrival = ep.Host().Now()
			},
		)
		return arrival
	}
	clean := measure(nil)
	delayed := measure(faults.New(faults.Config{
		Default: faults.LinkRates{DelayProb: 1, DelayMax: extra},
	}, 11))
	if delayed <= clean {
		t.Fatalf("delay injection did not slow delivery: clean %v, delayed %v", clean, delayed)
	}
	if delayed.Sub(clean) > extra {
		t.Fatalf("injected delay %v exceeds DelayMax %v", delayed.Sub(clean), extra)
	}
}
