package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"gossip/internal/server/api"
)

// TCPMesh frames, carried over the same length-prefixed codec the
// cluster shard RPC uses (api.WriteFrame/ReadFrame). The kind byte is a
// namespace per connection protocol, so these values are independent of
// the shard RPC's.
const (
	// FrameHello opens every connection: a JSON Hello identifying the
	// dialing process and the node range it hosts. Neighbor discovery is
	// HELLO-based: a process learns who is reachable (and that the fleet
	// agrees on the node partition) from the HELLOs it receives, not from
	// static configuration alone.
	FrameHello byte = 1
	// FrameData carries one routed packet: varint from, varint to, payload.
	FrameData byte = 2
	// FrameControl carries an out-of-band process-to-process message for
	// the layer above the mesh (result collection, verdicts): varint
	// sender process index, payload.
	FrameControl byte = 3
)

// Hello is the FrameHello payload: the sender's process index and the
// contiguous node range it hosts. The receiver cross-checks the range
// against its own partition of the same (n, processes) pair, so a fleet
// misconfigured with different topologies fails at handshake, not with
// silently misrouted packets.
type Hello struct {
	Index int `json:"index"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	N     int `json:"n"`
}

// ControlMsg is one out-of-band message between processes.
type ControlMsg struct {
	FromProc int
	Payload  []byte
}

// NodeRange returns the contiguous node range process index hosts when
// n nodes are partitioned over procs processes — the same ceil-split
// rule the distributed shard engine uses, so placement is a pure
// function every process computes identically.
func NodeRange(n, procs, index int) (lo, hi int) {
	per := (n + procs - 1) / procs
	lo = index * per
	if lo > n {
		lo = n
	}
	hi = lo + per
	if hi > n {
		hi = n
	}
	return lo, hi
}

// TCPMesh hosts one process's contiguous node range and routes packets
// to remote ranges over TCP. Every ordered process pair uses the
// connection the sender dialed; inbound connections are read-only.
type TCPMesh struct {
	index  int
	addrs  []string
	n      int
	lo, hi int
	ib     *inboxes
	ln     net.Listener
	ctrl   chan ControlMsg

	mu     sync.Mutex
	out    []*peerConn // indexed by process; nil for self / not yet dialed
	in     []net.Conn  // accepted connections, closed on Close to unblock readers
	closed bool

	wg sync.WaitGroup
}

type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
}

func (pc *peerConn) write(kind byte, payload []byte) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if err := api.WriteFrame(pc.bw, kind, payload); err != nil {
		return err
	}
	return pc.bw.Flush()
}

// NewTCPMesh builds the mesh half of process index of the fleet addrs
// (host:port per process), hosting its NodeRange share of nodes 0..n-1.
// Call Start to listen, dial and exchange HELLOs before sending.
func NewTCPMesh(index int, addrs []string, n, depth int) (*TCPMesh, error) {
	if len(addrs) < 2 {
		return nil, fmt.Errorf("transport: a TCP mesh needs >= 2 processes, got %d", len(addrs))
	}
	if index < 0 || index >= len(addrs) {
		return nil, fmt.Errorf("transport: process index %d outside [0, %d)", index, len(addrs))
	}
	if n < len(addrs) {
		return nil, fmt.Errorf("transport: %d nodes cannot span %d processes", n, len(addrs))
	}
	lo, hi := NodeRange(n, len(addrs), index)
	return &TCPMesh{
		index: index,
		addrs: addrs,
		n:     n,
		lo:    lo,
		hi:    hi,
		ib:    newInboxes(lo, hi-lo, depth),
		ctrl:  make(chan ControlMsg, 64),
		out:   make([]*peerConn, len(addrs)),
	}, nil
}

// Start listens on this process's address, dials every peer (retrying
// until ctx expires — peers boot in any order), sends its HELLO and
// waits for every peer's HELLO to arrive. When Start returns nil the
// full mesh is connected both ways: every process can reach and be
// reached by every other, the readiness barrier a run begins behind.
func (m *TCPMesh) Start(ctx context.Context) error {
	ln, err := net.Listen("tcp", m.addrs[m.index])
	if err != nil {
		return fmt.Errorf("transport: listening on %s: %w", m.addrs[m.index], err)
	}
	m.ln = ln
	helloed := make(chan int, len(m.addrs))
	m.wg.Add(1)
	go m.acceptLoop(helloed)

	for j := range m.addrs {
		if j == m.index {
			continue
		}
		pc, err := m.dialPeer(ctx, j)
		if err != nil {
			m.Close()
			return err
		}
		m.mu.Lock()
		m.out[j] = pc
		m.mu.Unlock()
	}

	// Readiness barrier: one HELLO per peer must have arrived inbound.
	pending := make(map[int]bool, len(m.addrs)-1)
	for j := range m.addrs {
		if j != m.index {
			pending[j] = true
		}
	}
	for len(pending) > 0 {
		select {
		case idx := <-helloed:
			delete(pending, idx)
		case <-ctx.Done():
			m.Close()
			return fmt.Errorf("transport: mesh barrier: %d peers never said HELLO: %w", len(pending), ctx.Err())
		}
	}
	return nil
}

// dialPeer connects to process j with retries (the fleet boots in any
// order) and opens the connection with this process's HELLO.
func (m *TCPMesh) dialPeer(ctx context.Context, j int) (*peerConn, error) {
	var d net.Dialer
	for {
		conn, err := d.DialContext(ctx, "tcp", m.addrs[j])
		if err == nil {
			pc := &peerConn{conn: conn, bw: bufio.NewWriter(conn)}
			hello, merr := json.Marshal(Hello{Index: m.index, Lo: m.lo, Hi: m.hi, N: m.n})
			if merr != nil {
				conn.Close()
				return nil, merr
			}
			if err := pc.write(FrameHello, hello); err != nil {
				conn.Close()
				return nil, fmt.Errorf("transport: HELLO to %s: %w", m.addrs[j], err)
			}
			return pc, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: dialing peer %d (%s): %w", j, m.addrs[j], ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (m *TCPMesh) acceptLoop(helloed chan<- int) {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.in = append(m.in, conn)
		m.mu.Unlock()
		m.wg.Add(1)
		go m.readLoop(conn, helloed)
	}
}

// readLoop consumes one inbound connection: a HELLO first (registered
// for the readiness barrier and cross-checked against this process's
// partition), then data and control frames until the peer closes.
func (m *TCPMesh) readLoop(conn net.Conn, helloed chan<- int) {
	defer m.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte
	kind, payload, err := api.ReadFrame(br, nil)
	if err != nil || kind != FrameHello {
		return
	}
	var h Hello
	if json.Unmarshal(payload, &h) != nil {
		return
	}
	if h.Index < 0 || h.Index >= len(m.addrs) || h.N != m.n {
		return // partition disagreement: refuse the connection
	}
	if lo, hi := NodeRange(m.n, len(m.addrs), h.Index); h.Lo != lo || h.Hi != hi {
		return
	}
	select {
	case helloed <- h.Index:
	default:
	}
	for {
		kind, payload, err = api.ReadFrame(br, buf[:0])
		if err != nil {
			return
		}
		buf = payload
		switch kind {
		case FrameData:
			from, rest, err := api.ReadUvarint(payload)
			if err != nil {
				return
			}
			v, rest, err := api.ReadUvarint(rest)
			if err != nil {
				return
			}
			to := int(v)
			if to < m.lo || to >= m.hi {
				continue // misrouted; drop
			}
			// The payload aliases the read scratch; copy before queueing.
			m.ib.deliver(Packet{From: int(from), To: to, Payload: append([]byte(nil), rest...)})
		case FrameControl:
			from, rest, err := api.ReadUvarint(payload)
			if err != nil {
				return
			}
			select {
			case m.ctrl <- ControlMsg{FromProc: int(from), Payload: append([]byte(nil), rest...)}:
			default:
				m.ib.drops.Add(1)
			}
		default:
			return
		}
	}
}

// owner returns the process hosting node id.
func (m *TCPMesh) owner(node int) int {
	per := (m.n + len(m.addrs) - 1) / len(m.addrs)
	return node / per
}

// Send routes payload to node to: a local inbox delivery when this
// process hosts it, one data frame on the dialed connection otherwise.
func (m *TCPMesh) Send(from, to int, payload []byte) error {
	if to < 0 || to >= m.n {
		return fmt.Errorf("transport: send to node %d outside [0, %d)", to, m.n)
	}
	if to >= m.lo && to < m.hi {
		m.ib.deliver(Packet{From: from, To: to, Payload: payload})
		return nil
	}
	m.mu.Lock()
	pc := m.out[m.owner(to)]
	closed := m.closed
	m.mu.Unlock()
	if closed || pc == nil {
		return ErrClosed
	}
	frame := make([]byte, 0, len(payload)+2*binary.MaxVarintLen64)
	frame = binary.AppendUvarint(frame, uint64(from))
	frame = binary.AppendUvarint(frame, uint64(to))
	frame = append(frame, payload...)
	return pc.write(FrameData, frame)
}

// SendControl sends an out-of-band message to process toProc.
func (m *TCPMesh) SendControl(toProc int, payload []byte) error {
	m.mu.Lock()
	pc := m.out[toProc]
	closed := m.closed
	m.mu.Unlock()
	if closed || pc == nil {
		return ErrClosed
	}
	frame := make([]byte, 0, len(payload)+binary.MaxVarintLen64)
	frame = binary.AppendUvarint(frame, uint64(m.index))
	frame = append(frame, payload...)
	return pc.write(FrameControl, frame)
}

// Control returns the out-of-band message channel.
func (m *TCPMesh) Control() <-chan ControlMsg { return m.ctrl }

// Inbox returns the receive channel of a locally hosted node.
func (m *TCPMesh) Inbox(node int) <-chan Packet { return m.ib.inbox(node) }

// Local lists the locally hosted nodes.
func (m *TCPMesh) Local() []int {
	out := make([]int, 0, m.hi-m.lo)
	for u := m.lo; u < m.hi; u++ {
		out = append(out, u)
	}
	return out
}

// Drops counts packets lost to full local inboxes.
func (m *TCPMesh) Drops() int64 { return m.ib.drops.Load() }

// Close tears down the listener, every connection and every inbox.
func (m *TCPMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := append([]*peerConn(nil), m.out...)
	inbound := append([]net.Conn(nil), m.in...)
	m.mu.Unlock()
	if m.ln != nil {
		m.ln.Close()
	}
	for _, pc := range conns {
		if pc != nil {
			pc.conn.Close()
		}
	}
	for _, c := range inbound {
		c.Close()
	}
	m.ib.close()
	m.wg.Wait()
	return nil
}

var _ Mesh = (*TCPMesh)(nil)
