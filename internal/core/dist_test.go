package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"chant/internal/comm"
	"chant/internal/comm/tcpnet"
	"chant/internal/machine"
	"chant/internal/trace"
)

// TestDistributedOverTCP runs a two-process Chant machine where each
// process has its own Runtime and tcpnet Node — the same isolation two OS
// processes would have — and exercises p2p messaging, RSR, and remote
// create/join across real TCP.
func TestDistributedOverTCP(t *testing.T) {
	nodes := bootTCP(t, nil)

	topo := Topology{PEs: 2, ProcsPerPE: 1}
	cfg := Config{Policy: SchedulerPollsPS, Delivery: DeliverCtx}

	newProc := func(pe int32, lead bool) (*tcpnet.Node, *comm.Endpoint, *Runtime, error) {
		node := nodes[pe]
		ep := node.NewEndpoint(comm.Addr{PE: pe, Proc: 0},
			machine.NewRealHost(machine.Modern()), &trace.Counters{})
		rt := NewDistRuntime(topo, cfg, machine.Modern())
		rt.Register("squarer", func(th *Thread, arg []byte) {
			out := make([]byte, len(arg))
			for i, b := range arg {
				out[i] = b * b
			}
			th.Exit(out)
		})
		return node, ep, rt, nil
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	var echoed []byte

	wg.Add(2)
	go func() { // coordinator: pe0
		defer wg.Done()
		node, ep, rt, err := newProc(0, true)
		if err != nil {
			errs[0] = err
			return
		}
		defer node.Close()
		_, errs[0] = rt.RunOne(comm.Addr{PE: 0, Proc: 0}, ep, func(th *Thread) {
			// p2p across OS-process boundary.
			if err := th.Send(GlobalID{PE: 1, Proc: 0, Thread: 0}, 1, []byte("tcp hello")); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 64)
			n, _, err := th.Recv(GlobalID{PE: 1, Proc: 0, Thread: 0}, 2, buf)
			if err != nil {
				t.Error(err)
				return
			}
			echoed = append([]byte(nil), buf[:n]...)

			// Remote create + join across the boundary.
			remote, err := th.Create(1, 0, "squarer", []byte{2, 3, 4}, CreateOpts{})
			if err != nil {
				t.Errorf("remote create over tcp: %v", err)
				return
			}
			v, err := th.Join(remote)
			if err != nil {
				t.Errorf("remote join over tcp: %v", err)
				return
			}
			if got, ok := v.([]byte); !ok || !bytes.Equal(got, []byte{4, 9, 16}) {
				t.Errorf("join value %v", v)
			}
		})
	}()
	go func() { // worker: pe1
		defer wg.Done()
		node, ep, rt, err := newProc(1, false)
		if err != nil {
			errs[1] = err
			return
		}
		defer node.Close()
		_, errs[1] = rt.RunOne(comm.Addr{PE: 1, Proc: 0}, ep, func(th *Thread) {
			buf := make([]byte, 64)
			n, from, err := th.Recv(AnyThread, 1, buf)
			if err != nil {
				t.Error(err)
				return
			}
			if err := th.Send(from, 2, append([]byte("echo:"), buf[:n]...)); err != nil {
				t.Error(err)
			}
		})
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("distributed machine did not terminate")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	if string(echoed) != "echo:tcp hello" {
		t.Fatalf("echoed = %q", echoed)
	}
}
