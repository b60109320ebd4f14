package core

import (
	"errors"
	"testing"

	"chant/internal/comm"
	"chant/internal/faults"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/ult"
)

// robustCfg is the baseline fault-tolerant configuration: short timeouts so
// tests converge quickly in virtual time.
func robustCfg() Config {
	return Config{
		Policy:     SchedulerPollsPS,
		Delivery:   DeliverCtx,
		RSRTimeout: 10 * sim.Millisecond,
		RSRRetries: 8,
		RSRBackoff: 100 * sim.Microsecond,
		TermGrace:  10 * sim.Millisecond,
	}
}

func TestCallRetriesThroughDrops(t *testing.T) {
	// A quarter of the messages on every link disappear; the stop-and-wait
	// retry layer must still complete every Call, exactly once per sequence.
	plan := faults.New(faults.Config{Default: faults.LinkRates{DropProb: 0.25}}, 5)
	cfg := robustCfg()
	cfg.RSRRetries = 16
	cfg.Faults = plan
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	var served int
	rt.RegisterHandler(7, func(ctx *RSRContext) ([]byte, error) {
		served++
		return []byte("pong"), nil
	})
	res, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			buf := make([]byte, 8)
			for i := 0; i < 10; i++ {
				n, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 7, []byte("ping"), buf)
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
				if string(buf[:n]) != "pong" {
					t.Errorf("call %d: got %q", i, buf[:n])
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if served != 10 {
		t.Errorf("handler ran %d times for 10 calls: dedup broken", served)
	}
	if plan.Stats().Drops == 0 {
		t.Error("fault plan dropped nothing at 25% loss")
	}
	if res.Total.RSRRetries == 0 {
		t.Error("no retries recorded under 25% loss")
	}
}

func TestCallTimesOutOnTotalLoss(t *testing.T) {
	// Requests toward PE1 always vanish; the Call must give up with
	// ErrRSRTimeout after its retry budget, not hang.
	plan := faults.New(faults.Config{
		PerLink: map[faults.Link]faults.LinkRates{
			{SrcPE: 0, DstPE: 1}: {DropProb: 1},
		},
	}, 5)
	cfg := robustCfg()
	cfg.RSRRetries = 2
	cfg.Faults = plan
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	rt.RegisterHandler(7, func(ctx *RSRContext) ([]byte, error) { return nil, nil })
	var callErr error
	res, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			_, callErr = th.Call(comm.Addr{PE: 1, Proc: 0}, 7, []byte("x"), make([]byte, 8))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(callErr, ErrRSRTimeout) {
		t.Fatalf("Call on a black-holed link: %v, want ErrRSRTimeout", callErr)
	}
	if res.Total.RSRTimeouts != 1 {
		t.Errorf("RSRTimeouts = %d, want 1", res.Total.RSRTimeouts)
	}
	if res.Total.RSRRetries != 2 {
		t.Errorf("RSRRetries = %d, want 2", res.Total.RSRRetries)
	}
}

func TestCrashedPEIsDetected(t *testing.T) {
	// PE1 dies mid-run. PE0's calls to it must start failing with
	// ErrPeerDead (not ErrRSRTimeout forever), the run must still
	// terminate, and the dead scheduler must report ErrKilled.
	plan := faults.New(faults.Config{
		Crashes: []faults.Crash{{PE: 1, At: sim.Time(50 * sim.Millisecond)}},
	}, 5)
	cfg := robustCfg()
	cfg.Faults = plan
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	rt.RegisterHandler(7, func(ctx *RSRContext) ([]byte, error) { return []byte("ok"), nil })
	var firstErr error
	var okCalls int
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			buf := make([]byte, 8)
			for i := 0; i < 1000; i++ {
				if _, cerr := th.Call(comm.Addr{PE: 1, Proc: 0}, 7, []byte("x"), buf); cerr != nil {
					firstErr = cerr
					return
				}
				okCalls++
			}
		},
		{PE: 1, Proc: 0}: func(th *Thread) {
			// Spin forever; the crash is what stops this PE.
			for {
				th.Yield()
			}
		},
	})
	if !errors.Is(err, ult.ErrKilled) {
		t.Fatalf("run error %v does not report the killed PE", err)
	}
	if okCalls == 0 {
		t.Error("no calls succeeded before the crash")
	}
	if !errors.Is(firstErr, comm.ErrPeerDead) {
		t.Fatalf("call to crashed PE failed with %v, want ErrPeerDead", firstErr)
	}
}

func TestMsgwaitTimeoutExpires(t *testing.T) {
	cfg := robustCfg()
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	var gotErr error
	var waited sim.Duration
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			host := th.Process().Endpoint().Host()
			// Nobody ever sends tag 9.
			h, ierr := th.Irecv(GlobalID{PE: 1, Proc: 0, Thread: AnyField}, 9, make([]byte, 8))
			if ierr != nil {
				panic(ierr)
			}
			t0 := host.Now()
			gotErr = th.MsgwaitTimeout(h, 20*sim.Millisecond)
			waited = host.Now().Sub(t0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, comm.ErrTimeout) {
		t.Fatalf("MsgwaitTimeout = %v, want ErrTimeout", gotErr)
	}
	if waited < 20*sim.Millisecond {
		t.Errorf("returned after %v, before the 20ms deadline", waited)
	}
}

func TestMsgwaitTimeoutDelivers(t *testing.T) {
	cfg := robustCfg()
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	var got string
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			buf := make([]byte, 16)
			h, ierr := th.Irecv(GlobalID{PE: 1, Proc: 0, Thread: 0}, 9, buf)
			if ierr != nil {
				panic(ierr)
			}
			if werr := th.MsgwaitTimeout(h, sim.Second); werr != nil {
				panic(werr)
			}
			got = string(buf[:h.Len()])
		},
		{PE: 1, Proc: 0}: func(th *Thread) {
			if serr := th.Send(GlobalID{PE: 0, Proc: 0, Thread: 0}, 9, []byte("on time")); serr != nil {
				panic(serr)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "on time" {
		t.Fatalf("got %q", got)
	}
}

func TestUnexpectedQueueCapDropsOverflow(t *testing.T) {
	// One PE sending to itself keeps the termination handshake (and its
	// own unexpected traffic) out of the accounting.
	cfg := robustCfg()
	cfg.MaxUnexpected = 4
	rt := NewSimRuntime(Topology{PEs: 1, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	res, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			// Ten messages nobody is receiving, against a cap of four.
			for i := 0; i < 10; i++ {
				if serr := th.Send(GlobalID{PE: 0, Proc: 0, Thread: 0}, 3, []byte{byte(i)}); serr != nil {
					panic(serr)
				}
			}
			th.Process().Endpoint().Host().Charge(10 * sim.Millisecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Total.UnexpectedDropped; got != 6 {
		t.Errorf("UnexpectedDropped = %d, want 6", got)
	}
}

// A release the graceful handshake sends to a peer declared dead cannot
// arrive. It is reported — the coordinator's run returns comm.ErrPeerDead
// naming the release — not dropped silently. The peer here is alive and
// released all the same: only the coordinator's endpoint marked it dead.
func TestReleaseToDeadPeerReported(t *testing.T) {
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, robustCfg(), machine.Paragon1994())
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			th.proc.ep.MarkPeerDead(comm.Addr{PE: 1, Proc: 0})
		},
		{PE: 1, Proc: 0}: func(th *Thread) {},
	})
	if !errors.Is(err, comm.ErrPeerDead) {
		t.Fatalf("Run returned %v, want the release to pe1 reported as comm.ErrPeerDead", err)
	}
	t.Log(err)
}
