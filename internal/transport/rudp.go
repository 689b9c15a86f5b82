package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// RUDP constants.
const (
	// rudpWindow is the sender's in-flight window in packets, and the size
	// of the ring that holds them.
	rudpWindow = 256
	// rudpWindowBytes additionally bounds the in-flight payload bytes, so
	// large-block senders cannot burst past receiver socket buffers (UDP
	// has no congestion control of its own).
	rudpWindowBytes = 256 * 1024
	// rudpMaxDatagram bounds one datagram (header + payload).
	rudpMaxDatagram = 64 * 1024
	// rudpAckEvery acknowledges every k-th in-order packet (plus any
	// out-of-order arrival immediately).
	rudpAckEvery = 4
	// rudpMaxRetries gives up the connection after this many
	// retransmissions of the same packet.
	rudpMaxRetries = 20
)

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// control payloads.
var (
	ctlSyn    = []byte("SYN")
	ctlSynAck = []byte("SYN-ACK")
	ctlFin    = []byte("FIN")
)

// Handshake frames are constant; they are marshaled once and only read.
var (
	synFrame    = controlFrame(ctlSyn)
	synAckFrame = controlFrame(ctlSynAck)
	finFrame    = controlFrame(ctlFin)
)

func controlFrame(payload []byte) []byte {
	b, _ := (&Message{Kind: KindControl, Payload: payload}).Marshal()
	return b
}

// pendingPkt is one slot of the send window ring.
type pendingPkt struct {
	wb      *WireBuf // pooled backing store of data; released on ack/close
	data    []byte
	sentAt  time.Time
	retries int
	// writing marks the first transmission in progress outside the lock;
	// an ack landing meanwhile sets acked and defers the pool release to
	// the writer, so a buffer never returns to the pool mid-syscall. A
	// slot still writing is not reused (see windowFull).
	writing bool
	acked   bool
}

// retire releases p's pooled buffer unless a writer still holds it (the
// writer then releases on completion). Callers hold c.mu.
func (p *pendingPkt) retire() {
	if p.writing {
		p.acked = true
		return
	}
	p.release()
}

// release returns the slot's buffer to the pool and empties the slot.
func (p *pendingPkt) release() {
	ReleaseWire(p.wb)
	*p = pendingPkt{}
}

// ackDue is what a received frame owes the peer once its read batch ends.
// Acks for in-order data are deferred to the end of the batch so a burst
// costs one cumulative ack; out-of-order and duplicate frames are re-acked
// at once and owe nothing here.
type ackDue uint8

const (
	ackNone ackDue = iota
	// ackDelayed: in-order delivery that stopped short of an ack boundary;
	// the delayed-ack flush covers it.
	ackDelayed
	// ackNow: delivery crossed an ack boundary; one cumulative ack is due.
	ackNow
)

// RUDPConn is a reliable, ordered message connection over UDP: sliding
// window, cumulative acks, Jacobson RTO with exponential backoff, and
// in-order delivery — the RUDP module of the IQ-Paths middleware stack
// (Fig. 2), whose acks double as the bandwidth/RTT measurement hooks.
type RUDPConn struct {
	write func([]byte) error // socket write bound to the peer
	// writev (optional) transmits several datagrams as one mmsg batch;
	// nil falls back to per-datagram write calls.
	writev func([]Datagram) error
	// to addresses every batched datagram to the peer: the zero AddrPort
	// on a connected (dialed) socket.
	to   netip.AddrPort
	peer string
	rtt  *RTTEstimator
	tm   *connMetrics

	mu       sync.Mutex
	sendCond *sync.Cond
	nextSeq  uint64
	lowest   uint64 // lowest unacked seq
	// win is the send window. The in-flight sequences are always the
	// contiguous range [lowest, nextSeq), at most rudpWindow of them, and
	// sequence s lives in win[s%rudpWindow].
	win           [rudpWindow]pendingPkt
	inFlightBytes int
	closed        bool

	recvNext uint64
	// ooo buffers frames that cannot be delivered yet: out of order, or
	// in order while recvQ is full (recvStalled). Buffered frames are not
	// acked.
	ooo         map[uint64]*Message
	recvQ       chan *Message
	recvStalled atomic.Bool
	// ackPending marks in-order deliveries that did not reach an ack
	// boundary; the retransmit monitor flushes them as a delayed ack.
	ackPending bool
	lastAck    uint64 // cumulative sequence of the last ack sent

	// stats
	retransmits     uint64
	fastRetransmits uint64
	ackedBits       float64 // payload bits confirmed delivered by acks
	dupAcks         int     // consecutive duplicate cumulative acks

	probeEcho chan uint64

	// rawHandler (if set) receives KindTrain messages — the unreliable
	// probe-train substrate of the live runtime. Guarded by rawMu, not mu:
	// the handler runs on the demux goroutine and must not contend with
	// the send path.
	rawMu      sync.RWMutex
	rawHandler func(*Message)

	// txMu serializes SendBatch callers over txDgs, the batch handed to
	// writev.
	txMu  sync.Mutex
	txDgs []Datagram
	// ctlMu guards ctlBuf, the scratch payload-less frames (acks, probe
	// echoes) are encoded into; the write completes before it is reused.
	ctlMu  sync.Mutex
	ctlBuf [headerLen]byte

	closeOnce sync.Once
	closeFn   func()
	done      chan struct{}
}

func newRUDPConn(peer string, write func([]byte) error, closeFn func()) *RUDPConn {
	c := &RUDPConn{
		write:     write,
		peer:      peer,
		rtt:       NewRTTEstimator(0, 0),
		tm:        acquireConnMetrics(),
		nextSeq:   1,
		lowest:    1,
		recvNext:  1,
		ooo:       map[uint64]*Message{},
		recvQ:     make(chan *Message, 1024),
		probeEcho: make(chan uint64, 8),
		closeFn:   closeFn,
		done:      make(chan struct{}),
	}
	c.sendCond = sync.NewCond(&c.mu)
	go c.retxLoop()
	return c
}

// writeAll transmits the datagrams, as one batch where the socket supports
// it. Errors are advisory (retransmission covers losses).
func (c *RUDPConn) writeAll(dgs []Datagram) {
	if c.writev != nil {
		_ = c.writev(dgs)
		return
	}
	for i := range dgs {
		_ = c.write(dgs[i].Buf)
	}
}

// sendHeader writes one payload-less frame through ctlBuf, so acks and
// probe echoes never allocate.
func (c *RUDPConn) sendHeader(kind uint8, stream uint32, seq uint64) error {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	putHeader(c.ctlBuf[:], kind, stream, seq)
	return c.write(c.ctlBuf[:])
}

// RemoteAddr implements Conn.
func (c *RUDPConn) RemoteAddr() string { return c.peer }

// RTT returns the connection's smoothed round-trip estimate.
func (c *RUDPConn) RTT() time.Duration { return c.rtt.SRTT() }

// Retransmits returns the number of retransmitted packets so far.
func (c *RUDPConn) Retransmits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retransmits
}

// FastRetransmits returns the number of duplicate-ack-triggered
// retransmissions.
func (c *RUDPConn) FastRetransmits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fastRetransmits
}

// AckedBits returns the total payload bits the peer has cumulatively
// acknowledged — the sender-side goodput measure feeding live monitors.
func (c *RUDPConn) AckedBits() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackedBits
}

// SentSeq returns the highest data/control sequence number consumed by
// Send so far — the sender-side packet count live monitors pair with
// Retransmits to estimate a loss rate.
func (c *RUDPConn) SentSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeq - 1
}

// SetRawHandler installs fn as the receiver of KindTrain messages.
// fn runs on the connection's demux goroutine and must be fast and
// non-blocking; nil uninstalls. Raw messages bypass sequencing, acks, and
// Recv entirely.
func (c *RUDPConn) SetRawHandler(fn func(*Message)) {
	c.rawMu.Lock()
	c.rawHandler = fn
	c.rawMu.Unlock()
}

// WriteRaw marshals and transmits m exactly once, with no reliability:
// no sequence number, no ack, no retransmission. Probe trains use it so
// their wire timing reflects the path, not the ARQ machinery.
func (c *RUDPConn) WriteRaw(m *Message) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	data, err := m.Marshal()
	if err != nil {
		return err
	}
	return c.write(data)
}

// InFlight returns the number of unacknowledged packets.
func (c *RUDPConn) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.nextSeq - c.lowest)
}

// windowFull reports whether the send window blocks admission: the ring
// is full, the byte budget is spent, or the next slot's previous occupant
// was acked while its first write is still in progress. Callers hold c.mu.
func (c *RUDPConn) windowFull() bool {
	return c.nextSeq-c.lowest >= rudpWindow || c.inFlightBytes >= rudpWindowBytes ||
		c.win[c.nextSeq%rudpWindow].writing
}

// admit marshals m into a pooled buffer, consumes the next sequence
// number, and fills its window slot, stamped with the send time the
// retransmit monitor times its RTO from. Callers hold c.mu, have checked
// windowFull, and must clear the packet's writing flag (via finishWrite)
// once the bytes are on the wire.
func (c *RUDPConn) admit(m *Message) (*pendingPkt, error) {
	// Marshal before consuming the sequence number: a consumed-but-never-
	// transmitted seq would leave a permanent hole the receiver's recvNext
	// can never cross, stranding every later message in its out-of-order
	// map.
	seq := c.nextSeq
	wire := *m
	wire.Seq = seq
	wb := AcquireWire()
	data, err := wire.appendMarshal(wb.B[:0])
	if err != nil {
		ReleaseWire(wb)
		return nil, err
	}
	wb.B = data
	c.nextSeq++
	now := time.Now()
	p := &c.win[seq%rudpWindow]
	*p = pendingPkt{wb: wb, data: data, sentAt: now, writing: true}
	c.inFlightBytes += len(data)
	return p, nil
}

// finishWrite clears the writing marks admit set on the n sequences from
// first on, releasing buffers whose acks raced the transmission; their
// slots become reusable, which may reopen a blocked window.
func (c *RUDPConn) finishWrite(first uint64, n int) {
	c.mu.Lock()
	freed := false
	for seq := first; seq < first+uint64(n); seq++ {
		p := &c.win[seq%rudpWindow]
		p.writing = false
		if p.acked {
			p.release()
			freed = true
		}
	}
	if freed {
		c.sendCond.Broadcast()
	}
	c.mu.Unlock()
}

// Send implements Conn: it blocks while the send window is full and
// returns once the message is transmitted (not yet acknowledged).
func (c *RUDPConn) Send(m *Message) error {
	c.mu.Lock()
	if !c.closed && c.windowFull() {
		c.tm.sendBlocks.Inc()
	}
	for !c.closed && c.windowFull() {
		c.sendCond.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	seq := c.nextSeq
	p, err := c.admit(m)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	data := p.data
	c.mu.Unlock()
	c.tm.sent.Inc()
	c.tm.inFlight.Add(1)
	werr := c.write(data)
	c.finishWrite(seq, 1)
	return werr
}

// SendBatch transmits msgs with exactly Send's reliability and windowing,
// but flushes each admitted run toward the socket as one mmsg batch —
// the pacing-aware write path: a scheduler tick's packets for this
// destination become one syscall instead of one each. Like Send it blocks
// while the window is full, so a batch larger than the free window flushes
// in windowed chunks.
func (c *RUDPConn) SendBatch(msgs []*Message) error {
	c.txMu.Lock()
	defer c.txMu.Unlock()
	i := 0
	for i < len(msgs) {
		c.mu.Lock()
		if !c.closed && c.windowFull() {
			c.tm.sendBlocks.Inc()
		}
		for !c.closed && c.windowFull() {
			c.sendCond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		// Admitted sequences are contiguous from first on.
		first := c.nextSeq
		dgs := c.txDgs[:0]
		var aerr error
		for i < len(msgs) && !c.windowFull() {
			p, err := c.admit(msgs[i])
			if err != nil {
				aerr = err
				break
			}
			dgs = append(dgs, Datagram{Buf: p.data, Addr: c.to})
			i++
		}
		c.txDgs = dgs
		c.mu.Unlock()
		c.tm.sent.Add(uint64(len(dgs)))
		c.tm.inFlight.Add(float64(len(dgs)))
		c.writeAll(dgs)
		c.finishWrite(first, len(dgs))
		clear(dgs) // drop references to buffers the window may recycle
		if aerr != nil {
			return aerr
		}
	}
	return nil
}

// Recv implements Conn: messages are delivered reliably and in order. The
// returned message and its payload are the caller's (garbage-collected,
// never pooled).
func (c *RUDPConn) Recv() (*Message, error) {
	m, ok := <-c.recvQ
	if !ok {
		return nil, ErrClosed
	}
	if c.recvStalled.Load() {
		c.resume()
	}
	return m, nil
}

// Close implements Conn.
func (c *RUDPConn) Close() error {
	c.closeOnce.Do(func() {
		_ = c.write(finFrame)
		c.mu.Lock()
		c.closed = true
		// Retire the in-flight gauge contribution of packets that will
		// never be acked; the window is emptied so a late ack cannot
		// double-decrement, and the pooled wire buffers go home.
		c.tm.inFlight.Add(-float64(c.nextSeq - c.lowest))
		for seq := c.lowest; seq < c.nextSeq; seq++ {
			c.win[seq%rudpWindow].retire()
		}
		c.lowest = c.nextSeq
		c.inFlightBytes = 0
		c.sendCond.Broadcast()
		c.mu.Unlock()
		close(c.done)
		close(c.recvQ)
		if c.closeFn != nil {
			c.closeFn()
		}
	})
	return nil
}

// handle processes one datagram addressed to this connection as a read
// batch of its own, acking at once whatever it makes due.
func (c *RUDPConn) handle(m *Message) { c.settle(c.receive(m)) }

// receive processes one datagram addressed to this connection and returns
// the in-order ack it owes once the caller's read batch ends (see settle).
// m may alias a receive buffer: anything kept past the call is cloned.
func (c *RUDPConn) receive(m *Message) ackDue {
	switch m.Kind {
	case KindAck:
		c.onAck(m.Seq)
	case KindData:
		return c.onData(m)
	case KindProbe:
		if m.Stream == 0 {
			// Request: echo it back marked as a reply.
			_ = c.sendHeader(KindProbe, 1, m.Seq)
			return ackNone
		}
		// Reply: hand the token to a waiting Probe call.
		select {
		case c.probeEcho <- m.Seq:
		default:
		}
	case KindTrain:
		c.rawMu.RLock()
		fn := c.rawHandler
		c.rawMu.RUnlock()
		if fn != nil {
			fn(m.clone())
		}
	case KindControl:
		if string(m.Payload) == string(ctlFin) {
			_ = c.Close()
			return ackNone
		}
		// Application control messages travel through Send and carry a
		// sequence number: they are acked, ordered, and delivered via
		// Recv exactly like data. Handshake frames (SYN/SYN-ACK, and FIN
		// above) are marshaled raw with Seq 0 and never reach the app.
		if m.Seq != 0 {
			return c.onData(m)
		}
	}
	return ackNone
}

// settle discharges the ack a read batch owes: ackNow sends the cumulative
// ack, ackDelayed arms the delayed-ack flush unless an ack sent during the
// batch already covers every delivery.
func (c *RUDPConn) settle(due ackDue) {
	switch due {
	case ackNow:
		c.sendAck()
	case ackDelayed:
		c.mu.Lock()
		c.ackPending = c.recvNext-1 != c.lastAck
		c.mu.Unlock()
	}
}

func (c *RUDPConn) onAck(cum uint64) {
	var fastResend []byte
	var acked int
	c.mu.Lock()
	if cum >= c.nextSeq {
		cum = c.nextSeq - 1 // nothing past what was sent can be acked
	}
	now := time.Now()
	for seq := c.lowest; seq <= cum; seq++ {
		p := &c.win[seq%rudpWindow]
		if p.retries == 0 { // Karn's rule: no RTT from retransmits
			sample := now.Sub(p.sentAt)
			c.rtt.Observe(sample)
			c.tm.rtt.Observe(sample.Seconds())
		}
		c.ackedBits += float64(len(p.data)-headerLen) * 8
		c.inFlightBytes -= len(p.data)
		p.retire()
		acked++
	}
	if cum >= c.lowest {
		c.lowest = cum + 1
		c.dupAcks = 0
	} else if cum+1 == c.lowest {
		// Duplicate cumulative ack: the packet at c.lowest is likely lost.
		// After three duplicates, retransmit it immediately (fast
		// retransmit) instead of waiting out the RTO.
		c.dupAcks++
		if c.dupAcks == 3 {
			if c.lowest < c.nextSeq {
				p := &c.win[c.lowest%rudpWindow]
				p.retries++
				p.sentAt = now
				c.retransmits++
				c.fastRetransmits++
				// Copy off the pooled buffer: a later ack may release it
				// before the write below leaves the lock's shadow. The
				// monitor times the next RTO from the new sentAt.
				fastResend = append([]byte(nil), p.data...)
			}
			c.dupAcks = 0
		}
	}
	c.sendCond.Broadcast()
	c.mu.Unlock()
	if acked > 0 {
		c.tm.inFlight.Add(-float64(acked))
	}
	if fastResend != nil {
		c.tm.retx.Inc()
		c.tm.fastRetx.Inc()
		_ = c.write(fastResend)
	}
}

// onData buffers or delivers one sequenced frame. Duplicates and
// out-of-order frames are re-acked at once, so the sender's duplicate-ack
// count sees every one of them; in-order progress returns its ack to the
// read batch.
func (c *RUDPConn) onData(m *Message) ackDue {
	cm := m.clone()
	c.mu.Lock()
	if cm.Seq < c.recvNext {
		// Duplicate: re-ack so the sender can advance.
		c.mu.Unlock()
		c.sendAck()
		return ackNone
	}
	start := c.recvNext
	if cm.Seq == start && len(c.ooo) == 0 {
		// The common case: the next frame, nothing buffered.
		if !c.enqueue(cm) {
			c.ooo[cm.Seq] = cm
			c.recvStalled.Store(true)
		}
	} else {
		if _, held := c.ooo[cm.Seq]; !held {
			c.ooo[cm.Seq] = cm
		}
		c.drain()
	}
	due := c.progress(start)
	// Behind a full recvQ there is no gap to report: the frame waits
	// unacked, and the sender's backed-off RTO paces its retries. Duplicate
	// acks there would trip fast retransmit over and over and burn the
	// sender's retry budget within one stall.
	reack := due == ackNone && !c.recvStalled.Load()
	c.mu.Unlock()
	if reack {
		c.sendAck()
	}
	return due
}

// enqueue hands m, the frame at recvNext, to the application and advances
// recvNext. It reports false, leaving recvNext alone, when recvQ is full:
// a frame is acked only once the application's queue holds it. Callers
// hold c.mu.
func (c *RUDPConn) enqueue(m *Message) bool {
	if !c.closed {
		select {
		case c.recvQ <- m:
		default:
			return false
		}
	}
	c.recvNext++
	return true
}

// drain delivers buffered frames from recvNext on until a gap or a full
// recvQ, and records whether delivery is stalled on the queue. Callers
// hold c.mu.
func (c *RUDPConn) drain() {
	for {
		seq := c.recvNext
		m, ok := c.ooo[seq]
		if !ok {
			c.recvStalled.Store(false)
			return
		}
		if !c.enqueue(m) {
			c.recvStalled.Store(true)
			return
		}
		delete(c.ooo, seq)
	}
}

// progress returns the ack owed by delivering [start, recvNext): the ack
// is due when the delivered run crossed an ack boundary anywhere — not
// only when it ended on one, which a burst of buffered frames delivering
// at once can straddle without landing on. Short of a boundary, the
// delayed-ack flush covers a quiescent tail within one monitor tick, well
// inside the sender's RTO floor. Callers hold c.mu.
func (c *RUDPConn) progress(start uint64) ackDue {
	if c.recvNext == start {
		return ackNone
	}
	c.tm.received.Add(c.recvNext - start)
	if (c.recvNext-1)/rudpAckEvery > (start-1)/rudpAckEvery {
		return ackNow
	}
	return ackDelayed
}

// resume moves frames held back by a full recvQ into the room the
// application just made, and settles the acks their delivery earns.
func (c *RUDPConn) resume() {
	c.mu.Lock()
	start := c.recvNext
	c.drain()
	due := c.progress(start)
	c.mu.Unlock()
	c.settle(due)
}

// takeAck records a cumulative ack of everything delivered so far and
// returns its sequence. With onlyNew it records nothing and reports false
// when the last ack sent already carried that sequence: a read batch's
// coalesced ack must not add a duplicate the sender would count toward
// fast retransmit.
func (c *RUDPConn) takeAck(onlyNew bool) (uint64, bool) {
	c.mu.Lock()
	cum := c.recvNext - 1
	c.ackPending = false
	if onlyNew && cum == c.lastAck {
		c.mu.Unlock()
		return cum, false
	}
	c.lastAck = cum
	c.mu.Unlock()
	c.tm.acksSent.Inc()
	return cum, true
}

func (c *RUDPConn) sendAck() {
	cum, _ := c.takeAck(false)
	_ = c.sendHeader(KindAck, 0, cum)
}

// Probe measures one RTT sample by sending a probe (Stream 0) and waiting
// for the peer's echo (Stream 1) carrying the same token.
func (c *RUDPConn) Probe(timeout time.Duration) (time.Duration, error) {
	token := uint64(time.Now().UnixNano())
	start := time.Now()
	if err := c.sendHeader(KindProbe, 0, token); err != nil {
		return 0, err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case tok := <-c.probeEcho:
			if tok != token {
				continue // stale echo from an earlier timed-out probe
			}
			rtt := time.Since(start)
			c.rtt.Observe(rtt)
			c.tm.rtt.Observe(rtt.Seconds())
			return rtt, nil
		case <-deadline.C:
			return 0, fmt.Errorf("transport: probe timeout after %v", timeout)
		case <-c.done:
			return 0, ErrClosed
		}
	}
}
