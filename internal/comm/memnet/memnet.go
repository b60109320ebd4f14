// Package memnet is the in-memory transport for real-time, single-OS-process
// runs: messages are delivered synchronously from the sender's goroutine
// into the destination endpoint's mailbox. It provides the same interface
// and matching semantics as the simulated and TCP transports, so programs
// written against the Chant API run unchanged in all three.
//
// The route table — each address's endpoint — is an immutable snapshot
// behind one atomic pointer. A send loads it once and looks the destination
// up in it, with no lock; the one writer, NewEndpoint, serializes on a
// mutex, copies the table, adds to the copy and publishes it. A send racing
// a registration sees either the old table or the new one, never a mix.
package memnet

import (
	"fmt"
	"maps"
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
// stored.
type routeTable map[comm.Addr]*comm.Endpoint

// New creates an empty in-memory network.
func New() *Network {
	n := &Network{}
	n.routes.Store(&routeTable{})
	return n
}

// NewEndpoint attaches process addr to the network.
func (n *Network) NewEndpoint(addr comm.Addr, host machine.Host, ctrs *trace.Counters) *comm.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	rt := *n.routes.Load()
	if rt[addr] != nil {
		panic(fmt.Sprintf("memnet: duplicate endpoint %v", addr))
	}
	ep := comm.NewEndpoint(addr, host, ctrs, n)
	next := maps.Clone(rt)
	next[addr] = ep
	n.routes.Store(&next)
	return ep
}

// Deliver implements comm.Transport with immediate synchronous delivery.
func (n *Network) Deliver(msg *comm.Message) {
	dst := (*n.routes.Load())[msg.Hdr.Dst()]
	if dst == nil {
		panic(fmt.Sprintf("memnet: send to unknown process %v", msg.Hdr.Dst()))
	}
	dst.DeliverLocal(msg)
}

// DeliverFrom implements comm.DirectTransport: every memnet destination is
// reachable synchronously from the sender's goroutine, so the sender's
// buffer goes straight to the destination's Endpoint.DeliverFrom, after one
// route-table load and one lookup. A false return (unknown destination)
// sends the caller down the ordinary Deliver path, which reports it.
func (n *Network) DeliverFrom(hdr comm.Header, data []byte, from machine.Host) bool {
	dst := (*n.routes.Load())[hdr.Dst()]
	if dst == nil {
		return false
	}
	dst.DeliverFrom(hdr, data, from)
	return true
}

// TryDeliverDirect is DeliverFrom with no sender clock (a queued copy's
// SentAt stays zero). It is kept only because the benchmark (benchmark/)
// names it.
func (n *Network) TryDeliverDirect(hdr comm.Header, data []byte) bool {
	return n.DeliverFrom(hdr, data, nil)
}
