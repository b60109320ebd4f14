// Package tcpnet is the distributed transport: Chant processes running in
// separate OS processes (or machines) exchange messages over TCP with a
// length-prefixed binary wire format. A rendezvous leader collects every
// process's listen address and broadcasts the peer table, after which data
// flows directly process-to-process over one connection per direction —
// preserving the per-pair FIFO order the mailbox matching relies on.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/trace"
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

	mu         sync.Mutex
	eps        map[comm.Addr]*comm.Endpoint
	conns      map[string]*sender
	inbound    map[net.Conn]struct{}
	lastSeen   map[comm.Addr]time.Time
	dead       map[comm.Addr]bool
	backoffs   map[comm.Addr]*backoffState
	peerEpochs map[comm.Addr]uint32
	closed     bool

	hbStop chan struct{}
	wg     sync.WaitGroup
}

// sender is one outbound connection with a write lock (frames must not
// interleave).
type sender struct {
	mu sync.Mutex
	c  net.Conn
	w  *bufio.Writer

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

// wireHeaderLen is the fixed encoded header size: nine int32 fields.
const wireHeaderLen = 36

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

// Bootstrap joins (or leads) the machine's rendezvous and returns a Node
// ready to create endpoints. It blocks until every process has registered.
func Bootstrap(o Options) (*Node, error) {
	o = o.withDefaults()
	ln, err := net.Listen("tcp", o.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: data listen: %w", err)
	}
	n := &Node{
		self:       o.Self,
		ln:         ln,
		maxFrame:   uint32(o.MaxFrameSize),
		hb:         o.Heartbeat,
		epoch:      o.Epoch,
		eps:        make(map[comm.Addr]*comm.Endpoint),
		conns:      make(map[string]*sender),
		inbound:    make(map[net.Conn]struct{}),
		lastSeen:   make(map[comm.Addr]time.Time),
		dead:       make(map[comm.Addr]bool),
		backoffs:   make(map[comm.Addr]*backoffState),
		peerEpochs: make(map[comm.Addr]uint32),
		hbStop:     make(chan struct{}),
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
	return ep
}

// Peers reports the full process table discovered at rendezvous.
func (n *Node) Peers() map[comm.Addr]string {
	out := make(map[comm.Addr]string, len(n.peers))
	for k, v := range n.peers {
		out[k] = v
	}
	return out
}

// Deliver implements comm.Transport: local destinations are delivered
// directly; remote ones are framed onto the destination's connection. A
// failed send redials with bounded backoff; once the redial budget is
// exhausted the peer is declared dead and the message dropped — the wire is
// lossy by contract now, and recovery belongs to the retry layers above.
func (n *Node) Deliver(msg *comm.Message) {
	dst := msg.Hdr.Dst()
	n.mu.Lock()
	ep := n.eps[dst]
	dead := n.dead[dst]
	n.mu.Unlock()
	if ep != nil {
		ep.DeliverLocal(msg)
		return
	}
	if dead {
		comm.ReleaseMessage(msg)
		return // dead peers receive nothing
	}
	addr, ok := n.peers[dst]
	if !ok {
		panic(fmt.Sprintf("tcpnet: send to unknown process %v", dst))
	}
	n.deliverRemote(msg, dst, addr)
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

// deliverRemote frames msg onto dst's connection, redialing with bounded
// backoff on failure.
func (n *Node) deliverRemote(msg *comm.Message, dst comm.Addr, addr string) {
	if uint32(wireHeaderLen+len(msg.Data)) > n.maxFrame {
		panic(fmt.Sprintf("tcpnet: send to %v: %v (%d bytes)", dst, ErrFrameTooLarge, len(msg.Data)))
	}
	for attempt := 0; ; attempt++ {
		s, err := n.senderFor(addr)
		if err == nil {
			if err = s.writeFrame(msg); err == nil {
				comm.ReleaseMessage(msg) // frame is flushed; recycle the buffer
				return
			}
			// The connection is wedged; drop it so the next attempt dials
			// fresh.
			n.dropSender(addr, s)
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

// dropSender discards a wedged outbound connection so the next send redials,
// unless another sender already replaced it.
func (n *Node) dropSender(addr string, s *sender) {
	n.mu.Lock()
	if n.conns[addr] == s {
		delete(n.conns, addr)
	}
	n.mu.Unlock()
	s.c.Close()
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

// PeerDead reports whether the node has declared peer failed.
func (n *Node) PeerDead(peer comm.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dead[peer]
}

// PeerEpoch reports the highest incarnation number heard from peer in a
// heartbeat (zero before any heartbeat arrives).
func (n *Node) PeerEpoch(peer comm.Addr) uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peerEpochs[peer]
}

// notePeerEpoch records a heartbeat's incarnation number and, when the peer
// had been declared dead, revives it: a heartbeat is proof of life whatever
// its epoch. Reviving clears the dead mark, resets the redial backoff, and
// tells every local endpoint (failing-over receives resume matching).
func (n *Node) notePeerEpoch(peer comm.Addr, epoch uint32) {
	n.mu.Lock()
	if epoch > n.peerEpochs[peer] {
		n.peerEpochs[peer] = epoch
	}
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

// senderFor returns (dialing if necessary) the outbound connection to a
// peer's data address.
func (n *Node) senderFor(addr string) (*sender, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("tcpnet: node closed")
	}
	if s, ok := n.conns[addr]; ok {
		return s, nil
	}
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	s := &sender{c: c, w: bufio.NewWriter(c)}
	n.conns[addr] = s
	return s, nil
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
	var hdr [4 + wireHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(wireHeaderLen+len(msg.Data)))
	putHeader(hdr[4:], msg.Hdr)
	if _, err := s.w.Write(hdr[:]); err != nil {
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

func putHeader(b []byte, h comm.Header) {
	fields := [9]int32{h.SrcPE, h.SrcProc, h.SrcThread, h.DstPE, h.DstProc, h.Ctx, h.Tag, h.Size, h.Flags}
	for i, f := range fields {
		binary.BigEndian.PutUint32(b[i*4:], uint32(f))
	}
}

func getHeader(b []byte) comm.Header {
	f := func(i int) int32 { return int32(binary.BigEndian.Uint32(b[i*4:])) }
	return comm.Header{
		SrcPE: f(0), SrcProc: f(1), SrcThread: f(2),
		DstPE: f(3), DstProc: f(4), Ctx: f(5), Tag: f(6), Size: f(7), Flags: f(8),
	}
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
	addr, ok := n.peers[peer]
	if !ok {
		return
	}
	s, err := n.senderFor(addr)
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
		n.dropSender(addr, s)
	}
}

// noteAlive credits a frame from peer: its silence clock restarts and its
// redial backoff resets. The reset is the other half of the persistent
// backoff in Deliver — without it, one bad spell would ratchet a peer's
// redial pause up to the cap forever, throttling sends to a peer that has
// long since answered a heartbeat.
func (n *Node) noteAlive(peer comm.Addr) {
	//chant:allow-nondet wall-clock failure detection
	now := time.Now()
	n.mu.Lock()
	if b := n.backoffs[peer]; b != nil {
		b.reset()
	}
	if n.hb > 0 {
		n.lastSeen[peer] = now
	}
	n.mu.Unlock()
}

// acceptLoop receives inbound connections; each gets a reader goroutine.
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
		n.inbound[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		//chant:allow-nondet real network I/O goroutine
		go n.readLoop(c)
	}
}

// readLoop decodes frames from one inbound connection and delivers them to
// the addressed local endpoint.
func (n *Node) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
	}()
	r := bufio.NewReaderSize(c, readBufSize(n.maxFrame))
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return // peer closed
		}
		frameLen := binary.BigEndian.Uint32(lenBuf[:])
		if frameLen < wireHeaderLen || frameLen > n.maxFrame {
			// A corrupt (or hostile) length prefix must not drive
			// allocation: fail the connection cleanly instead.
			return
		}
		var hdrBuf [wireHeaderLen]byte
		if _, err := io.ReadFull(r, hdrBuf[:]); err != nil {
			return
		}
		hdr := getHeader(hdrBuf[:])
		n.noteAlive(hdr.Src())
		payload := int(frameLen) - wireHeaderLen
		if hdr.Tag == hbTag {
			if payload > 0 {
				if _, err := io.CopyN(io.Discard, r, int64(payload)); err != nil {
					return
				}
			}
			// The heartbeat's Ctx field carries the sender's incarnation; a
			// heartbeat from a peer this node declared dead is the rejoin
			// signal (higher epoch: the peer restarted; same epoch: the
			// detector was premature).
			n.notePeerEpoch(hdr.Src(), uint32(hdr.Ctx))
			continue // heartbeat control frame; liveness is its payload
		}
		n.mu.Lock()
		ep := n.eps[hdr.Dst()]
		n.mu.Unlock()
		if ep == nil {
			if payload > 0 {
				if _, err := io.CopyN(io.Discard, r, int64(payload)); err != nil {
					return
				}
			}
			continue // no such local endpoint; drop (like NX)
		}
		if r.Buffered() >= payload {
			// The whole payload already sits in the read buffer: hand it to
			// the endpoint in place, so a matching posted receive takes it
			// with no pooled message and no extra copy (only an arrival that
			// must queue is copied out). The guard makes Peek neither block
			// on the socket nor fail on a payload larger than the buffer;
			// such a payload is read into a pooled message below.
			b, err := r.Peek(payload)
			if err != nil {
				return
			}
			ep.DeliverFrom(hdr, b, nil)
			if _, err := r.Discard(payload); err != nil {
				return
			}
			continue
		}
		// Inbound payloads come from the message pool: a steady-state
		// receiver recycles its buffers instead of allocating per frame.
		msg := comm.GetPooledMessage(payload)
		if _, err := io.ReadFull(r, msg.Data); err != nil {
			comm.ReleaseMessage(msg)
			return
		}
		msg.Hdr = hdr
		ep.DeliverLocal(msg)
	}
}

// Read-buffer sizing for inbound connections. The seed used bufio's 4 KiB
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

// Close shuts the node down: the listener, all connections, and the reader
// goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.hbStop)
	conns := n.conns
	n.conns = map[string]*sender{}
	var inbound []net.Conn
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()
	err := n.ln.Close()
	// Teardown is order-insensitive: each Close is independent.
	//chant:allow-nondet connection teardown order does not matter
	for _, s := range conns {
		s.c.Close()
	}
	for _, c := range inbound {
		c.Close()
	}
	n.wg.Wait()
	return err
}
