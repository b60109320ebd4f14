// Package memnet is the in-memory transport for real-time, single-OS-process
// runs: messages are delivered synchronously from the sender's goroutine
// into the destination endpoint's mailbox. It provides the same interface
// and matching semantics as the simulated and TCP transports, so programs
// written against the Chant API run unchanged in all three.
//
// Routing state — each address's endpoint and whether it is closed — is an
// immutable snapshot behind one atomic pointer. A send loads it once and
// looks both peers up in it, with no lock; the rare writers (NewEndpoint,
// ClosePeer, ReopenPeer) serialize on a mutex, copy the table, change the
// copy and publish it. A send racing a writer sees either the old table or
// the new one, never a mix.
package memnet

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/trace"
)

// Network is an in-memory interconnect between processes hosted in one Go
// program. Unlike simnet, endpoints may be registered concurrently and
// delivery happens immediately (the wall clock is the only latency).
type Network struct {
	mu     sync.Mutex // serializes the writers of routes
	routes atomic.Pointer[routeTable]
}

// routeTable is one published routing snapshot; it is never modified once
// stored. An address may be closed before its endpoint registers.
type routeTable map[comm.Addr]route

type route struct {
	ep     *comm.Endpoint
	closed bool
}

// New creates an empty in-memory network.
func New() *Network {
	n := &Network{}
	n.routes.Store(&routeTable{})
	return n
}

// publish stores a copy of the route table with addr's route set to r and
// returns it. The caller holds mu.
func (n *Network) publish(addr comm.Addr, r route) routeTable {
	next := maps.Clone(*n.routes.Load())
	next[addr] = r
	n.routes.Store(&next)
	return next
}

// NewEndpoint attaches process addr to the network.
func (n *Network) NewEndpoint(addr comm.Addr, host machine.Host, ctrs *trace.Counters) *comm.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := (*n.routes.Load())[addr]
	if r.ep != nil {
		panic(fmt.Sprintf("memnet: duplicate endpoint %v", addr))
	}
	r.ep = comm.NewEndpoint(addr, host, ctrs, n)
	n.publish(addr, r)
	return r.ep
}

// Endpoint looks up the endpoint registered for addr, or nil.
func (n *Network) Endpoint(addr comm.Addr) *comm.Endpoint {
	return (*n.routes.Load())[addr].ep
}

// ClosePeer declares process addr failed: its messages stop flowing (sends
// to and from it are silently discarded) and every other endpoint marks it
// dead, failing receives pinned to it. This models an abruptly-killed OS
// process for the in-memory machine. Idempotent.
func (n *Network) ClosePeer(addr comm.Addr) { n.setClosed(addr, true) }

// ReopenPeer reverses ClosePeer once addr's process has restarted: its
// messages flow again and every other endpoint clears its dead mark for it
// (the rejoin handshake above re-synchronizes protocol state). Idempotent.
func (n *Network) ReopenPeer(addr comm.Addr) { n.setClosed(addr, false) }

// setClosed sets addr's closed mark and, if that changed it, tells every
// other endpoint — in address order, so failure and recovery fan-out is
// deterministic — that addr died or came back.
func (n *Network) setClosed(addr comm.Addr, closed bool) {
	n.mu.Lock()
	r := (*n.routes.Load())[addr]
	if r.closed == closed {
		n.mu.Unlock()
		return
	}
	r.closed = closed
	rt := n.publish(addr, r)
	n.mu.Unlock()
	others := make([]*comm.Endpoint, 0, len(rt))
	for a, r := range rt {
		if a != addr && r.ep != nil {
			others = append(others, r.ep)
		}
	}
	sort.Slice(others, func(i, j int) bool {
		ai, aj := others[i].Addr(), others[j].Addr()
		if ai.PE != aj.PE {
			return ai.PE < aj.PE
		}
		return ai.Proc < aj.Proc
	})
	for _, ep := range others {
		if closed {
			ep.MarkPeerDead(addr)
		} else {
			ep.MarkPeerAlive(addr)
		}
	}
}

// Deliver implements comm.Transport with immediate synchronous delivery.
// Messages to or from a closed peer are discarded: a dead process neither
// sends nor receives.
func (n *Network) Deliver(msg *comm.Message) {
	rt := *n.routes.Load()
	dst, src := rt[msg.Hdr.Dst()], rt[msg.Hdr.Src()]
	if dst.closed || src.closed {
		if src.ep != nil {
			src.ep.Counters().FaultDrops.Add(1)
		}
		comm.ReleaseMessage(msg)
		return
	}
	if dst.ep == nil {
		panic(fmt.Sprintf("memnet: send to unknown process %v", msg.Hdr.Dst()))
	}
	dst.ep.DeliverLocal(msg)
}

// TryDeliverDirect implements comm.DirectTransport: every memnet destination
// is reachable synchronously from the sender's goroutine, so the zero-copy
// matched-receive fast path is offered whenever both peers are alive. A
// false return (peer closed, unknown destination, lock contended, no posted
// match) sends the caller down the ordinary Deliver path, which also owns
// all fault accounting.
func (n *Network) TryDeliverDirect(hdr comm.Header, data []byte) bool {
	rt := *n.routes.Load()
	dst := rt[hdr.Dst()]
	return dst.ep != nil && !dst.closed && !rt[hdr.Src()].closed && dst.ep.TryDeliverDirect(hdr, data)
}
