// Package simnet is the simulated transport: messages traverse a modeled
// interconnect with latency NetBase + NetPerByte*size (the alpha+beta*n
// model fitted from the paper's Table 2) and are delivered as
// discrete-event callbacks at their arrival times. Because arrival time is
// always send time plus a positive latency, and the kernel executes events
// in global virtual-time order, no message can arrive in a receiver's past
// — the conservative-simulation property the runtime relies on.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chant/internal/comm"
	"chant/internal/faults"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// Network is a simulated interconnect joining the endpoints of one
// simulation kernel.
type Network struct {
	kernel *sim.Kernel
	model  *machine.Model

	// mu guards eps. Simulation processes attach and send one at a time, so
	// it is never contended; it keeps Endpoint safe to call from a goroutine
	// outside the kernel's hand-off (a harness inspecting the network).
	//chant:allow-nondet registry lock only; protects map access, never event order
	mu  sync.RWMutex
	eps map[comm.Addr]*comm.Endpoint

	// MeshWidth, when positive, arranges processing elements in a 2D mesh
	// of that width (the Paragon's topology): pe i sits at (i mod width,
	// i div width), and each hop beyond the first adds Model.NetPerHop of
	// latency. Zero models a flat (distance-independent) network. Set it
	// before traffic flows.
	MeshWidth int

	// Faults, when non-nil, is the deterministic fault-injection plane the
	// wires consult on every cross-process message: drops, duplicates, delay
	// jitter, partitions, and crash/stall schedules all originate here. Set
	// it before traffic flows. Same-process (loopback) delivery is never
	// faulted — there is no wire to fail.
	Faults *faults.Plan

	delivered atomic.Uint64
}

// New creates a network delivering through kernel with model's latency.
func New(kernel *sim.Kernel, model *machine.Model) *Network {
	return &Network{
		kernel: kernel,
		model:  model,
		eps:    make(map[comm.Addr]*comm.Endpoint),
	}
}

// Delivered counts messages handed to destination endpoints.
func (n *Network) Delivered() uint64 { return n.delivered.Load() }

// NewEndpoint attaches process addr to the network, executing on host and
// counting into ctrs. Attaching the same address twice panics: it would
// make delivery ambiguous.
func (n *Network) NewEndpoint(addr comm.Addr, host machine.Host, ctrs *trace.Counters) *comm.Endpoint {
	ep := comm.NewEndpoint(addr, host, ctrs, n)
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[addr]; dup {
		panic(fmt.Sprintf("simnet: duplicate endpoint %v", addr))
	}
	n.eps[addr] = ep
	return ep
}

// Rebind replaces the endpoint for addr with a fresh one on host — the
// restart path of crash recovery. The old endpoint stays valid for messages
// already bound to it (simnet resolves the destination at send time, so
// pre-crash in-flight traffic lands in the dead incarnation and is lost,
// exactly like a real wire); sends decided after Rebind reach the new one.
// Unlike NewEndpoint, rebinding requires the address to exist already.
func (n *Network) Rebind(addr comm.Addr, host machine.Host, ctrs *trace.Counters) *comm.Endpoint {
	ep := comm.NewEndpoint(addr, host, ctrs, n)
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[addr]; !ok {
		panic(fmt.Sprintf("simnet: rebind of unknown process %v", addr))
	}
	n.eps[addr] = ep
	return ep
}

// Endpoint looks up the endpoint registered for addr, or nil.
func (n *Network) Endpoint(addr comm.Addr) *comm.Endpoint {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.eps[addr]
}

// Deliver implements comm.Transport: it schedules the message's arrival at
// its destination after the modeled wire latency. Sending to an address
// with no endpoint panics — simulated experiments construct their full
// topology up front, so this is always a harness bug.
func (n *Network) Deliver(msg *comm.Message) {
	src, dst := msg.Hdr.Src(), msg.Hdr.Dst()
	n.mu.RLock()
	ep := n.eps[dst]
	srcEp := n.eps[src]
	n.mu.RUnlock()
	if ep == nil {
		panic(fmt.Sprintf("simnet: send to unknown process %v", dst))
	}
	if dst == src {
		latency := n.model.Loopback + n.model.CopyCost(len(msg.Data))
		n.schedule(latency, ep, msg)
		return
	}
	latency := n.model.MsgLatency(len(msg.Data))
	if hops := n.hops(msg.Hdr.SrcPE, dst.PE); hops > 1 {
		latency += n.model.NetPerHop.Scale(float64(hops - 1))
	}
	if n.Faults != nil {
		d := n.Faults.Decide(n.kernel.Now(), src, dst, len(msg.Data))
		var ctrs *trace.Counters
		if srcEp != nil {
			ctrs = srcEp.Counters()
		}
		if d.Drop {
			if ctrs != nil {
				ctrs.FaultDrops.Add(1)
			}
			return
		}
		if d.Delay > 0 {
			if ctrs != nil {
				ctrs.FaultDelays.Add(1)
			}
			latency += d.Delay
		}
		if d.Duplicate {
			if ctrs != nil {
				ctrs.FaultDups.Add(1)
			}
			dup := &comm.Message{Hdr: msg.Hdr, Data: msg.Data, SentAt: msg.SentAt}
			n.schedule(latency+d.DupDelay, ep, dup)
		}
	}
	n.schedule(latency, ep, msg)
}

// schedule books one delivery at now+latency.
func (n *Network) schedule(latency sim.Duration, ep *comm.Endpoint, msg *comm.Message) {
	n.kernel.After(latency, func() {
		n.delivered.Add(1)
		ep.DeliverLocal(msg)
	})
}

// hops reports the Manhattan distance between two PEs on the configured
// mesh, or 1 for a flat network (and for same-PE, different-process pairs).
func (n *Network) hops(srcPE, dstPE int32) int {
	if n.MeshWidth <= 0 || srcPE == dstPE {
		return 1
	}
	sx, sy := int(srcPE)%n.MeshWidth, int(srcPE)/n.MeshWidth
	dx, dy := int(dstPE)%n.MeshWidth, int(dstPE)/n.MeshWidth
	d := abs(sx-dx) + abs(sy-dy)
	if d == 0 {
		return 1
	}
	return d
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
