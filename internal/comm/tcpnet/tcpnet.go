// Package tcpnet is the distributed transport: Chant processes running in
// separate OS processes (or machines) exchange messages over TCP in
// length-prefixed frames encoded with internal/wire. A rendezvous leader
// collects every process's listen address and broadcasts the peer table,
// after which data flows directly process-to-process.
//
// One TCP connection carries both directions between two processes. The
// process that sends first dials; the other adopts the accepted connection
// as its own sender to that peer, so a reply rides the connection its
// request came in on and its segment carries the request's ACK. Each process
// writes to a peer on one connection until that connection dies, which
// keeps the per-direction FIFO order the mailbox matching relies on. If both
// send first at the same moment there are two connections; each side keeps
// writing on the one it picked and reads both.
//
// Each connection is read by one goroutine at a time. A frame that completes
// the receive of an idle PE is run by its reader: once the frame is
// consumed the reader lends itself to the PE (machine.Host.Lend), switching
// into the PE's coroutine, and reads on when the PE parks again or goes home
// (the lend covers one thread turn). Any other wake-up goes through the
// PE's home goroutine. A lend that outlasts standInAfter — the woken
// thread sleeps, computes, or waits in a socket write — leaves the
// connection to a stand-in reader, and the lender exits when its lend ends,
// so heartbeats and the peer's frames are read whatever the PE does.
package tcpnet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/trace"
	"chant/internal/wire"
)

// Options configures one process's attachment to the distributed machine.
type Options struct {
	// Self is this process's Chant address.
	Self comm.Addr
	// Rendezvous is the leader's host:port.
	Rendezvous string
	// Lead makes this process host the rendezvous (exactly one process
	// must lead; by convention pe0.p0).
	Lead bool
	// Procs is the total number of processes in the machine (the leader
	// waits for all of them).
	Procs int
	// ListenAddr is this process's data-plane listen address
	// (default "127.0.0.1:0").
	ListenAddr string
	// DialTimeout bounds rendezvous and peer dials (default 10s).
	DialTimeout time.Duration
	// Cancel, when non-nil, aborts the rendezvous retry loop early when
	// closed (context-style cancellation for callers that give up before
	// the dial deadline).
	Cancel <-chan struct{}
	// MaxFrameSize bounds one wire frame (header + payload). The reader
	// drops any connection announcing a larger frame — a corrupt or hostile
	// length prefix must not drive allocation — and the sender refuses to
	// emit one. Default 64 MiB.
	MaxFrameSize int
	// Heartbeat, when positive, enables failure detection: the node sends a
	// control frame to every peer at this interval, and a peer silent for
	// heartbeatMisses intervals is declared dead — its pinned receives fail
	// with ErrPeerDead instead of hanging. Zero disables detection.
	Heartbeat time.Duration
	// Epoch is this process's incarnation number, carried in every heartbeat
	// frame: 0 for a first run, higher after a crash recovery. A heartbeat
	// from a peer this node had declared dead proves the peer is back (same
	// epoch: the detector was premature; higher epoch: the peer restarted),
	// so the dead mark is cleared and its redial backoff reset.
	Epoch uint32
}

func (o Options) withDefaults() Options {
	if o.ListenAddr == "" {
		o.ListenAddr = "127.0.0.1:0"
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.MaxFrameSize == 0 {
		o.MaxFrameSize = 64 << 20
	}
	return o
}

// Node is one OS process's endpoint registry plus its TCP machinery. It
// implements comm.Transport for the endpoints created through it.
type Node struct {
	self     comm.Addr
	ln       net.Listener
	peers    map[comm.Addr]string // every process's data listen address
	maxFrame uint32
	hb       time.Duration
	epoch    uint32

	mu  sync.Mutex
	eps map[comm.Addr]*comm.Endpoint
	// conns is the per-peer connection table: every live connection, dialed
	// or accepted, filed under the process at its other end (an accepted one
	// under noPeer until its first frame names the sender). Each has a
	// readLoop. The first connection in a peer's list is this node's sender
	// to that peer; a connection leaves the table when its reader ends or a
	// write to it fails, so the next send takes the next one or redials.
	conns    map[comm.Addr][]*sender
	lastSeen map[comm.Addr]time.Time
	dead     map[comm.Addr]bool
	backoffs map[comm.Addr]*backoffState
	closed   bool

	// selfUp is closed when this process's own endpoint (Options.Self) is
	// registered. A peer may send as soon as its Bootstrap returns, which
	// can be before this process's NewEndpoint; the frame waits for it.
	selfUp chan struct{}
	hbStop chan struct{}
	wg     sync.WaitGroup

	// standIns counts the stand-in readers started (see standInAfter).
	standIns atomic.Uint64
}

// sender is one connection to a peer. Its reader reads it; frames are
// written under its lock (frames must not interleave).
type sender struct {
	mu   sync.Mutex
	c    net.Conn
	w    *bufio.Writer
	head [frameHeadLen]byte // the frame prefix being written, under mu

	// pending counts writers that have announced a frame but not yet
	// written it (group commit): whoever drains the burst last flushes
	// once, so back-to-back sends share a syscall instead of paying one
	// flush per frame.
	pending atomic.Int32
}

// regMsg is the rendezvous control-plane message.
type regMsg struct {
	PE, Proc int32
	Data     string // data-plane listen address
}

// tableMsg broadcasts the completed peer table.
type tableMsg struct {
	Peers []regMsg
}

// A frame is a u32 length (header plus payload), the header's nine i32
// fields and the payload, little-endian through internal/wire.
const (
	wireHeaderLen = 36                // the encoded comm.Header
	frameHeadLen  = 4 + wireHeaderLen // length prefix and header
)

// noPeer files an accepted connection whose first frame has not yet named
// the process at its other end. No process has a negative address.
var noPeer = comm.Addr{PE: -1, Proc: -1}

// hbTag marks a heartbeat control frame. User tags are non-negative and the
// runtime's reserved tags are positive, so no data frame can collide.
const hbTag int32 = -0x4842 // "HB"

// heartbeatMisses is how many silent heartbeat intervals declare a peer
// dead.
const heartbeatMisses = 3

// Redial policy: a failed send retries with doubling backoff before the
// peer is declared dead and the message dropped.
const (
	maxRedials     = 4
	redialBackoff0 = 5 * time.Millisecond
	redialBackoffM = 500 * time.Millisecond
)

// backoffState is one peer's redial pacing. It persists across Deliver
// calls — a peer that keeps failing is approached ever more slowly — and is
// reset the moment the peer proves alive (any frame from it, heartbeat or
// data), so a recovered peer is re-approached at full speed instead of at
// whatever crawl the outage ratcheted the backoff up to.
type backoffState struct {
	cur, initial, max time.Duration
}

func newBackoffState() *backoffState {
	return &backoffState{cur: redialBackoff0, initial: redialBackoff0, max: redialBackoffM}
}

// next reports the current pause and doubles it for the next failure,
// saturating at max.
func (b *backoffState) next() time.Duration {
	d := b.cur
	b.cur *= 2
	if b.cur > b.max {
		b.cur = b.max
	}
	return d
}

// reset drops the pause back to its initial value.
func (b *backoffState) reset() { b.cur = b.initial }

// ErrFrameTooLarge reports a message exceeding Options.MaxFrameSize.
var ErrFrameTooLarge = errors.New("tcpnet: frame exceeds MaxFrameSize")

// errBadLength reports a length prefix shorter than a header or longer than
// MaxFrameSize; the reader drops the connection.
var errBadLength = errors.New("tcpnet: bad frame length")

// Bootstrap joins (or leads) the machine's rendezvous and returns a Node
// ready to create endpoints. It blocks until every process has registered.
func Bootstrap(o Options) (*Node, error) {
	o = o.withDefaults()
	ln, err := net.Listen("tcp", o.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: data listen: %w", err)
	}
	n := &Node{
		self:     o.Self,
		ln:       ln,
		maxFrame: uint32(o.MaxFrameSize),
		hb:       o.Heartbeat,
		epoch:    o.Epoch,
		eps:      make(map[comm.Addr]*comm.Endpoint),
		conns:    make(map[comm.Addr][]*sender),
		lastSeen: make(map[comm.Addr]time.Time),
		dead:     make(map[comm.Addr]bool),
		backoffs: make(map[comm.Addr]*backoffState),
		selfUp:   make(chan struct{}),
		hbStop:   make(chan struct{}),
	}
	if o.Lead {
		n.peers, err = lead(o, ln.Addr().String())
	} else {
		n.peers, err = join(o, ln.Addr().String())
	}
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.wg.Add(1)
	// Real transport: inbound TCP frames arrive preemptively by nature.
	//chant:allow-nondet real network I/O goroutine
	go n.acceptLoop()
	if n.hb > 0 {
		// Every peer starts its silence clock at bootstrap, so a peer that
		// dies before ever speaking is still detected.
		//chant:allow-nondet wall-clock failure-detection baseline
		now := time.Now()
		n.mu.Lock()
		for a := range n.peers {
			n.lastSeen[a] = now
		}
		n.mu.Unlock()
		n.wg.Add(1)
		//chant:allow-nondet real-time heartbeat goroutine
		go n.heartbeatLoop()
	}
	return n, nil
}

// lead runs the rendezvous: collect Procs registrations (including our
// own), then send everyone the table.
func lead(o Options, dataAddr string) (map[comm.Addr]string, error) {
	ctl, err := net.Listen("tcp", o.Rendezvous)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: rendezvous listen: %w", err)
	}
	defer ctl.Close()

	table := []regMsg{{PE: o.Self.PE, Proc: o.Self.Proc, Data: dataAddr}}
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for len(table) < o.Procs {
		c, err := ctl.Accept()
		if err != nil {
			return nil, fmt.Errorf("tcpnet: rendezvous accept: %w", err)
		}
		conns = append(conns, c)
		var reg regMsg
		if err := json.NewDecoder(c).Decode(&reg); err != nil {
			return nil, fmt.Errorf("tcpnet: bad registration: %w", err)
		}
		table = append(table, reg)
	}
	msg := tableMsg{Peers: table}
	for _, c := range conns {
		if err := json.NewEncoder(c).Encode(msg); err != nil {
			return nil, fmt.Errorf("tcpnet: table broadcast: %w", err)
		}
	}
	return tableToMap(table)
}

// join registers with the leader and waits for the table. The leader may
// not be listening yet, so the dial retries until the deadline passes or
// o.Cancel closes; the deadline is fixed once up front and every retry
// measures the single remaining budget with time.Until.
func join(o Options, dataAddr string) (map[comm.Addr]string, error) {
	// The wall clock is sanctioned here: rendezvous talks to real TCP
	// peers in other OS processes, outside any simulation clock.
	//chant:allow-nondet real TCP rendezvous deadline
	deadline := time.Now().Add(o.DialTimeout)
	var c net.Conn
	var lastErr error
	for {
		//chant:allow-nondet real TCP rendezvous deadline
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline exceeded")
			}
			return nil, fmt.Errorf("tcpnet: rendezvous dial: %w", lastErr)
		}
		c, lastErr = net.DialTimeout("tcp", o.Rendezvous, remaining)
		if lastErr == nil {
			break
		}
		// Leader may not be up yet: pace the retry, but wake early on
		// cancellation.
		//chant:allow-nondet real-time retry pacing against a TCP peer
		retry := time.NewTimer(50 * time.Millisecond)
		//chant:allow-nondet cancellation races real I/O by design
		select {
		case <-retry.C:
		case <-o.Cancel:
			retry.Stop()
			return nil, fmt.Errorf("tcpnet: rendezvous dial canceled: %w", lastErr)
		}
	}
	defer c.Close()
	reg := regMsg{PE: o.Self.PE, Proc: o.Self.Proc, Data: dataAddr}
	if err := json.NewEncoder(c).Encode(reg); err != nil {
		return nil, fmt.Errorf("tcpnet: register: %w", err)
	}
	var msg tableMsg
	if err := json.NewDecoder(c).Decode(&msg); err != nil {
		return nil, fmt.Errorf("tcpnet: table receive: %w", err)
	}
	return tableToMap(msg.Peers)
}

func tableToMap(table []regMsg) (map[comm.Addr]string, error) {
	m := make(map[comm.Addr]string, len(table))
	for _, r := range table {
		a := comm.Addr{PE: r.PE, Proc: r.Proc}
		if _, dup := m[a]; dup {
			return nil, fmt.Errorf("tcpnet: duplicate process %v at rendezvous", a)
		}
		m[a] = r.Data
	}
	return m, nil
}

// NewEndpoint attaches a local Chant process to the node.
func (n *Node) NewEndpoint(addr comm.Addr, host machine.Host, ctrs *trace.Counters) *comm.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[addr]; dup {
		panic(fmt.Sprintf("tcpnet: duplicate endpoint %v", addr))
	}
	ep := comm.NewEndpoint(addr, host, ctrs, n)
	n.eps[addr] = ep
	if addr == n.self {
		close(n.selfUp)
	}
	return ep
}

// Deliver implements comm.Transport: local destinations are delivered
// directly; remote ones are framed onto this node's sender to the
// destination. A failed send redials with bounded backoff; once the redial
// budget is exhausted the peer is declared dead and the message dropped —
// the wire is lossy by contract now, and recovery belongs to the retry
// layers above.
func (n *Node) Deliver(msg *comm.Message) {
	dst := msg.Hdr.Dst()
	n.mu.Lock()
	ep := n.eps[dst]
	dead := n.dead[dst]
	s := n.sendingTo(dst)
	n.mu.Unlock()
	if ep != nil {
		ep.DeliverLocal(msg)
		return
	}
	if dead {
		comm.ReleaseMessage(msg)
		return // dead peers receive nothing
	}
	if _, ok := n.peers[dst]; !ok {
		panic(fmt.Sprintf("tcpnet: send to unknown process %v", dst))
	}
	n.deliverRemote(msg, dst, s)
}

// sendingTo reports this node's sender to peer, or nil when it has none.
// The caller holds n.mu.
func (n *Node) sendingTo(peer comm.Addr) *sender {
	if cs := n.conns[peer]; len(cs) > 0 {
		return cs[0]
	}
	return nil
}

// DeliverFrom implements comm.DirectTransport for loopback destinations: a
// message addressed to an endpoint hosted on this node skips framing and
// goes to the endpoint straight from the sender's buffer. Remote
// destinations report false and take the framed Deliver path.
func (n *Node) DeliverFrom(hdr comm.Header, data []byte, from machine.Host) bool {
	n.mu.Lock()
	ep := n.eps[hdr.Dst()]
	n.mu.Unlock()
	if ep == nil {
		return false
	}
	ep.DeliverFrom(hdr, data, from)
	return true
}

// deliverRemote frames msg onto s, this node's sender to dst (nil: none
// yet), redialing with bounded backoff on failure.
func (n *Node) deliverRemote(msg *comm.Message, dst comm.Addr, s *sender) {
	if uint32(wireHeaderLen+len(msg.Data)) > n.maxFrame {
		panic(fmt.Sprintf("tcpnet: send to %v: %v (%d bytes)", dst, ErrFrameTooLarge, len(msg.Data)))
	}
	for attempt := 0; ; attempt++ {
		var err error
		if s == nil {
			s, err = n.senderFor(dst)
		}
		if err == nil {
			if err = s.writeFrame(msg); err == nil {
				comm.ReleaseMessage(msg) // frame is flushed; recycle the buffer
				return
			}
			// The connection is wedged; drop it so the next attempt takes
			// another or dials fresh.
			n.dropSender(dst, s)
			s = nil
		}
		if n.isClosed() || attempt >= maxRedials {
			n.markPeerDead(dst)
			comm.ReleaseMessage(msg)
			return
		}
		// Pacing a redial against a real TCP peer is inherently wall-clock.
		// The pause is per-peer state that keeps doubling across Deliver
		// calls and only resets when the peer proves alive — see noteAlive.
		//chant:allow-nondet real-time redial backoff
		time.Sleep(n.nextBackoff(dst))
	}
}

// nextBackoff reports the peer's current redial pause and advances its
// doubling schedule.
func (n *Node) nextBackoff(peer comm.Addr) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.backoffs[peer]
	if b == nil {
		b = newBackoffState()
		n.backoffs[peer] = b
	}
	return b.next()
}

// isClosed reports whether Close has begun.
func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// dropSender discards a wedged connection to peer so the next send takes
// another or redials. Its reader then ends on the closed socket.
func (n *Node) dropSender(peer comm.Addr, s *sender) {
	n.mu.Lock()
	n.unfile(peer, s)
	n.mu.Unlock()
	s.c.Close()
}

// unfile removes s from peer's list in the connection table. The caller
// holds n.mu.
func (n *Node) unfile(peer comm.Addr, s *sender) {
	cs := slices.DeleteFunc(n.conns[peer], func(c *sender) bool { return c == s })
	if len(cs) == 0 {
		delete(n.conns, peer)
	} else {
		n.conns[peer] = cs
	}
}

// file moves s, an accepted connection, from noPeer to the peer its first
// frame named. If the node has no sender to that peer yet, s becomes it: the
// check runs under n.mu, so a node picks its sender to a peer once.
func (n *Node) file(s *sender, peer comm.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.unfile(noPeer, s)
	n.conns[peer] = append(n.conns[peer], s)
}

// markPeerDead declares peer failed: future sends to it are dropped and
// every local endpoint fails its pinned receives. Idempotent; safe from any
// goroutine.
func (n *Node) markPeerDead(peer comm.Addr) {
	n.mu.Lock()
	if n.dead[peer] || n.closed {
		n.mu.Unlock()
		return
	}
	n.dead[peer] = true
	eps := make([]*comm.Endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	// Notify local endpoints in address order so fan-out is deterministic.
	sort.Slice(eps, func(i, j int) bool {
		ai, aj := eps[i].Addr(), eps[j].Addr()
		if ai.PE != aj.PE {
			return ai.PE < aj.PE
		}
		return ai.Proc < aj.Proc
	})
	for _, ep := range eps {
		ep.MarkPeerDead(peer)
	}
}

// revivePeer handles a heartbeat from peer: when the peer had been declared
// dead it revives it, since a heartbeat is proof of life whatever its epoch.
// Reviving clears the dead mark, resets the redial backoff, and tells every
// local endpoint (failing-over receives resume matching).
func (n *Node) revivePeer(peer comm.Addr) {
	n.mu.Lock()
	if !n.dead[peer] || n.closed {
		n.mu.Unlock()
		return
	}
	delete(n.dead, peer)
	if b := n.backoffs[peer]; b != nil {
		b.reset()
	}
	eps := make([]*comm.Endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	// Notify local endpoints in address order so fan-out is deterministic.
	sort.Slice(eps, func(i, j int) bool {
		ai, aj := eps[i].Addr(), eps[j].Addr()
		if ai.PE != aj.PE {
			return ai.PE < aj.PE
		}
		return ai.Proc < aj.Proc
	})
	for _, ep := range eps {
		ep.MarkPeerAlive(peer)
	}
}

// senderFor returns this node's sender to peer, dialing the peer's data
// address when the node holds no connection to it. The dialed connection
// gets a reader like any accepted one: the peer answers on it.
func (n *Node) senderFor(peer comm.Addr) (*sender, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("tcpnet: node closed")
	}
	if s := n.sendingTo(peer); s != nil {
		return s, nil
	}
	c, err := net.DialTimeout("tcp", n.peers[peer], 10*time.Second)
	if err != nil {
		return nil, err
	}
	return n.track(c, peer), nil
}

// track files a new connection under peer and starts its reader. The caller
// holds n.mu and has checked that the node is not closed.
func (n *Node) track(c net.Conn, peer comm.Addr) *sender {
	s := &sender{c: c, w: bufio.NewWriter(c)}
	n.conns[peer] = append(n.conns[peer], s)
	n.wg.Add(1)
	// Real transport: frames arrive preemptively by nature.
	//chant:allow-nondet real network I/O goroutine
	go n.readLoop(s, peer)
	return s
}

// writeFrame encodes one message and flushes with group commit: the frame
// is announced (pending) before taking the write lock, and after writing,
// the flush is skipped when another writer is already queued behind us —
// that writer (or the last of the burst) will flush for everyone. A burst
// of back-to-back sends thus coalesces into one syscall. The wire contract
// is lossy (peers heartbeat and retry), so deferring a flush to the next
// writer on its error path loses nothing that matters.
func (s *sender) writeFrame(msg *comm.Message) error {
	s.pending.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := wire.NewEncInto(s.head[:0], frameHeadLen)
	putFrameHead(&e, msg.Hdr, len(msg.Data))
	if _, err := s.w.Write(e.Out()); err != nil {
		s.pending.Add(-1)
		return err
	}
	if _, err := s.w.Write(msg.Data); err != nil {
		s.pending.Add(-1)
		return err
	}
	if s.pending.Add(-1) > 0 {
		// Another frame is queued right behind this one; let its writer
		// flush the shared buffer once for the whole burst.
		return nil
	}
	return s.w.Flush()
}

// putFrameHead encodes the length prefix and header of a frame whose
// payload is payload bytes long.
func putFrameHead(e *wire.Enc, h comm.Header, payload int) {
	e.U32(uint32(wireHeaderLen + payload))
	e.I32(h.SrcPE)
	e.I32(h.SrcProc)
	e.I32(h.SrcThread)
	e.I32(h.DstPE)
	e.I32(h.DstProc)
	e.I32(h.Ctx)
	e.I32(h.Tag)
	e.I32(h.Size)
	e.I32(h.Flags)
}

// readFrame reads one frame's length prefix and header off r and reports
// the header and the payload length, leaving the payload unread. A length
// shorter than a header or longer than maxFrame is errBadLength: a corrupt
// or hostile prefix must not drive allocation, so the caller drops the
// connection. The bytes are decoded in place in r's buffer, which must hold
// frameHeadLen bytes.
func readFrame(r *bufio.Reader, maxFrame uint32) (comm.Header, int, error) {
	b, err := r.Peek(4)
	if err != nil {
		return comm.Header{}, 0, err
	}
	d := wire.NewDec(b)
	frameLen := d.U32()
	if frameLen < wireHeaderLen || frameLen > maxFrame {
		return comm.Header{}, 0, errBadLength
	}
	if b, err = r.Peek(frameHeadLen); err != nil {
		return comm.Header{}, 0, err
	}
	d = wire.NewDec(b[4:])
	h := comm.Header{
		SrcPE: d.I32(), SrcProc: d.I32(), SrcThread: d.I32(),
		DstPE: d.I32(), DstProc: d.I32(), Ctx: d.I32(), Tag: d.I32(), Size: d.I32(), Flags: d.I32(),
	}
	r.Discard(frameHeadLen) // cannot fail: the bytes are buffered
	return h, int(frameLen) - wireHeaderLen, nil
}

// heartbeatLoop periodically pings every peer and declares dead any peer
// silent for heartbeatMisses intervals. Liveness is credited per source
// address: any frame (data or heartbeat) from a peer refreshes it.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	// The failure detector is wall-clock by nature: it bounds real silence
	// on a real wire.
	//chant:allow-nondet real-time heartbeat ticker
	tick := time.NewTicker(n.hb)
	defer tick.Stop()
	for {
		//chant:allow-nondet heartbeat period races shutdown by design
		select {
		case <-n.hbStop:
			return
		case <-tick.C:
		}
		//chant:allow-nondet wall-clock failure detection
		now := time.Now()
		for _, peer := range n.sortedPeers() {
			n.mu.Lock()
			dead := n.dead[peer]
			last := n.lastSeen[peer]
			n.mu.Unlock()
			if dead {
				continue
			}
			if now.Sub(last) > time.Duration(heartbeatMisses)*n.hb {
				n.markPeerDead(peer)
				continue
			}
			n.sendHeartbeat(peer)
		}
	}
}

// sortedPeers reports every remote peer address in deterministic order.
func (n *Node) sortedPeers() []comm.Addr {
	out := make([]comm.Addr, 0, len(n.peers))
	for a := range n.peers {
		if a != n.self {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PE != out[j].PE {
			return out[i].PE < out[j].PE
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// sendHeartbeat emits one control frame to peer, best-effort: a failure
// here simply leaves the peer's silence clock running.
func (n *Node) sendHeartbeat(peer comm.Addr) {
	if _, ok := n.peers[peer]; !ok {
		return
	}
	s, err := n.senderFor(peer)
	if err != nil {
		return
	}
	hb := &comm.Message{Hdr: comm.Header{
		SrcPE: n.self.PE, SrcProc: n.self.Proc,
		DstPE: peer.PE, DstProc: peer.Proc,
		Ctx: int32(n.epoch), // incarnation travels in the control frame
		Tag: hbTag,
	}}
	if err := s.writeFrame(hb); err != nil {
		n.dropSender(peer, s)
	}
}

// noteAlive credits a frame from hdr's source and returns the local endpoint
// it is addressed to (nil if none), under one acquisition of n.mu per
// frame. The source's redial backoff resets, and with failure detection on
// its silence clock restarts; only then is the wall clock read, since the
// silence clock is its one use. The reset is the other half of the persistent
// backoff in Deliver — without it, one bad spell would ratchet a peer's
// redial pause up to the cap forever, throttling sends to a peer that has
// long since answered a heartbeat.
func (n *Node) noteAlive(hdr comm.Header) *comm.Endpoint {
	var now time.Time
	if n.hb > 0 {
		//chant:allow-nondet wall-clock failure detection
		now = time.Now()
	}
	peer := hdr.Src()
	n.mu.Lock()
	if b := n.backoffs[peer]; b != nil {
		b.reset()
	}
	if n.hb > 0 {
		n.lastSeen[peer] = now
	}
	ep := n.eps[hdr.Dst()]
	n.mu.Unlock()
	return ep
}

// acceptLoop receives inbound connections; each gets a reader goroutine and
// waits under noPeer for its first frame to name the peer.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.track(c, noPeer)
		n.mu.Unlock()
	}
}

// standInAfter is the period of a reader's stand-in timer, which ticks
// while the reader lends itself to PEs: a lend in flight at two ticks in a
// row, so between one and two periods long, is taken over by a stand-in
// reader. It bounds how long the connection goes unread whatever the woken
// thread does, so it sits far below any heartbeat detection window
// (heartbeatMisses intervals) a run would set, and far above a lend that
// ends when the woken thread parks again (a Scheduler-polls ping-pong's
// round trip, two lends, takes ~21 µs, and none of ~235,000 such lends in
// a 2 s run met a stand-in), so a stand-in — one goroutine — is rare where
// lending pays, and the tick costs a timer expiry per period, not per
// frame.
const standInAfter = time.Millisecond

// reader is a connection's reading role. One goroutine holds it at a time:
// the one track starts, then a stand-in whenever a lend outlasts
// standInAfter.
type reader struct {
	n    *Node
	s    *sender
	peer comm.Addr
	r    *bufio.Reader

	// The frame being handed to ep: in place in the read buffer (data), or
	// in a pooled message (msg).
	ep        *comm.Endpoint
	hdr       comm.Header
	data      []byte
	msg       *comm.Message
	deliverFn func() // deliver, made once so a frame's Lend allocates nothing

	// lend is the number of the lend in flight, 0 while the holder reads.
	// It is set once deliver has consumed the frame, and whoever clears it
	// first — the lender when Lend returns, or the stand-in timer — holds
	// the role. seq numbers the lends, touched only by the holder.
	lend atomic.Uint64
	seq  uint64
	// standIn ticks (tick) while armed; a lend sets armed if it is not.
	// seen is the lend in flight at the last tick.
	standIn *time.Timer
	armed   atomic.Bool
	seen    atomic.Uint64
}

// readLoop is a connection's first reader.
func (n *Node) readLoop(s *sender, peer comm.Addr) {
	defer n.wg.Done()
	rd := &reader{n: n, s: s, peer: peer, r: bufio.NewReaderSize(s.c, readBufSize(n.maxFrame))}
	rd.deliverFn = rd.deliver
	//chant:allow-nondet a reader lent past standInAfter is replaced in real time
	rd.standIn = time.AfterFunc(time.Hour, rd.tick)
	rd.standIn.Stop()
	rd.run()
}

// run decodes frames from the connection, filed under rd.peer, and delivers
// them to the addressed local endpoint, until a stand-in takes the role
// over during a lend. When the connection ends (EOF, reset, a bad length or
// Close) it leaves the table, so the next send to the peer takes another
// connection or redials instead of writing into a dead socket.
func (rd *reader) run() {
	if !rd.read() {
		rd.standIn.Stop()
		n := rd.n
		n.mu.Lock()
		n.unfile(rd.peer, rd.s)
		n.mu.Unlock()
		rd.s.c.Close()
	}
}

// read is run's loop. It reports true when a stand-in took the role over,
// and false when the connection failed.
func (rd *reader) read() bool {
	n, r := rd.n, rd.r
	for {
		hdr, payload, err := readFrame(r, n.maxFrame)
		if err != nil {
			return false // peer closed, or a length that must not drive allocation
		}
		if rd.peer == noPeer {
			// The first frame names the process at the other end.
			rd.peer = hdr.Src()
			n.file(rd.s, rd.peer)
		}
		ep := n.noteAlive(hdr)
		if hdr.Tag == hbTag {
			if _, err := r.Discard(payload); err != nil {
				return false
			}
			// A heartbeat from a peer this node declared dead is the rejoin
			// signal, whatever the incarnation its Ctx field carries (higher
			// epoch: the peer restarted; same epoch: the detector was
			// premature).
			n.revivePeer(hdr.Src())
			continue // heartbeat control frame; liveness is its payload
		}
		if ep == nil && hdr.Dst() == n.self {
			// Addressed to this process before its endpoint exists: hold
			// the connection until it does, instead of dropping the frame.
			//chant:allow-nondet registration races node shutdown by design
			select {
			case <-n.selfUp:
			case <-n.hbStop: // Close closes it
				return false
			}
			ep = n.noteAlive(hdr)
		}
		if ep == nil {
			if _, err := r.Discard(payload); err != nil {
				return false
			}
			continue // no such local endpoint; drop (like NX)
		}
		rd.ep, rd.hdr, rd.data, rd.msg = ep, hdr, nil, nil
		if r.Buffered() >= payload {
			// The whole payload already sits in the read buffer: hand it to
			// the endpoint in place, so a matching posted receive takes it
			// with no pooled message and no extra copy (only an arrival that
			// must queue is copied out). The guard makes Peek neither block
			// on the socket nor fail on a payload larger than the buffer;
			// such a payload is read into a pooled message below.
			if rd.data, err = r.Peek(payload); err != nil {
				return false
			}
		} else {
			// Inbound payloads come from the message pool: a steady-state
			// receiver recycles its buffers instead of allocating per frame.
			rd.msg = comm.GetPooledMessage(payload)
			if _, err := io.ReadFull(r, rd.msg.Data); err != nil {
				comm.ReleaseMessage(rd.msg)
				return false
			}
			rd.msg.Hdr = hdr
		}
		// If the frame woke the idle PE, this goroutine runs it now.
		rd.seq++
		k := rd.seq
		ep.Host().Lend(rd.deliverFn)
		if !rd.lend.CompareAndSwap(k, 0) {
			return true // a stand-in reads on
		}
		n.wg.Done() // no stand-in took this lend's slot
	}
}

// deliver hands the frame to its endpoint and consumes it. From then on
// the connection may be read by a stand-in, whose goroutine it counts in
// the node's wait group ahead of time.
func (rd *reader) deliver() {
	if rd.msg != nil {
		rd.ep.DeliverLocal(rd.msg)
	} else {
		rd.ep.DeliverFrom(rd.hdr, rd.data, nil)
		rd.r.Discard(len(rd.data)) // cannot fail: the bytes are buffered
	}
	rd.ep, rd.data, rd.msg = nil, nil, nil
	rd.n.wg.Add(1)
	rd.lend.Store(rd.seq)
	if !rd.armed.Load() && rd.armed.CompareAndSwap(false, true) {
		//chant:allow-nondet a reader lent past standInAfter is replaced in real time
		rd.standIn.Reset(standInAfter)
	}
}

// tick runs on the stand-in timer's goroutine. A lend that was already in
// flight at the last tick is taken over: this goroutine becomes the
// reader, and the lender exits when its lend ends. Otherwise the timer
// ticks again while a lend is in flight, and stops until the next lend
// when none is.
func (rd *reader) tick() {
	k := rd.lend.Load()
	if k != 0 && rd.seen.Swap(k) == k && rd.lend.CompareAndSwap(k, 0) {
		rd.armed.Store(false) // the stand-in's own lends arm it again
		defer rd.n.wg.Done()
		rd.n.standIns.Add(1)
		rd.run()
		return
	}
	if k == 0 {
		rd.armed.Store(false)
		if rd.lend.Load() == 0 || !rd.armed.CompareAndSwap(false, true) {
			return // the next lend arms the timer
		}
	}
	//chant:allow-nondet a reader lent past standInAfter is replaced in real time
	rd.standIn.Reset(standInAfter)
}

// Read-buffer sizing for every connection. The seed used bufio's 4 KiB
// default, so any frame beyond that straddled buffer refills and the
// zero-copy receive path could never see a whole payload in place. The
// buffer is sized to hold one maximal frame, clamped to a sane ceiling so a
// permissive MaxFrameSize (the 64 MiB default) does not pin megabytes per
// connection.
const (
	minReadBuf = 4 << 10
	maxReadBuf = 1 << 20
)

func readBufSize(maxFrame uint32) int {
	n := int(maxFrame) + 4 // length prefix + largest frame
	if n < minReadBuf {
		return minReadBuf
	}
	if n > maxReadBuf {
		return maxReadBuf
	}
	return n
}

// StandIns reports how many times a stand-in reader took a connection over
// from a reader lent to a PE for longer than standInAfter.
func (n *Node) StandIns() uint64 { return n.standIns.Load() }

// Close shuts the node down: the listener, every connection, and the reader
// goroutines. A reader lent to a PE is joined once its lend ends.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.hbStop)
	// Teardown is order-insensitive: each Close is independent. The readers
	// then end and unfile their connections.
	//chant:allow-nondet connection teardown order does not matter
	for _, cs := range n.conns {
		for _, s := range cs {
			s.c.Close()
		}
	}
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	return err
}
