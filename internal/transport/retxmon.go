package transport

import (
	"time"
)

// Per-connection retransmit monitor. Every retxTick it walks the send
// window from its lowest sequence and retransmits the packets whose RTO
// has expired. First transmissions are stamped in sequence order (admit
// runs under the connection lock), so the walk stops at the first
// never-retransmitted packet that is not yet due: every later packet was
// first sent no earlier, or was retransmitted since. Steady-state cost
// therefore tracks the retransmitted packets in flight, not the window
// size, and filing a transmission costs nothing at all.

// retxTick is the monitor's period — well under the 20 ms RTO floor, so a
// due retransmit fires at most one tick late. The delayed-ack flush also
// rides this cadence.
const retxTick = 2 * time.Millisecond

// retxLoop drives the delayed-ack flush and the retransmit walk until the
// connection closes.
func (c *RUDPConn) retxLoop() {
	ticker := time.NewTicker(retxTick)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		// Delayed-ack flush: cover a quiescent in-order tail before the
		// peer's RTO can fire.
		c.mu.Lock()
		flushAck := c.ackPending
		c.mu.Unlock()
		if flushAck {
			c.sendAck()
		}
		if !c.retransmitDue() {
			return // fatal retry ceiling: connection closed
		}
	}
}

// retransmitDue retransmits every in-flight packet whose RTO has expired.
// It reports false when a packet exhausted its retries and the connection
// was torn down.
func (c *RUDPConn) retransmitDue() bool {
	rto := c.rtt.RTO()
	now := time.Now()
	var resend []Datagram
	fatal := false
	c.mu.Lock()
	for seq := c.lowest; seq < c.nextSeq; seq++ {
		p := &c.win[seq%rudpWindow]
		if now.Sub(p.sentAt) < rto {
			if p.retries == 0 {
				break // every later packet is due no sooner
			}
			continue
		}
		p.retries++
		if p.retries > rudpMaxRetries {
			fatal = true
			break
		}
		p.sentAt = now
		c.retransmits++
		// Copy the wire image: the pooled buffer may be released by an ack
		// racing the write below, and a freed buffer must never reach the
		// socket.
		resend = append(resend, Datagram{Buf: append([]byte(nil), p.data...), Addr: c.to})
	}
	c.mu.Unlock()
	if fatal {
		_ = c.Close()
		return false
	}
	if len(resend) > 0 {
		c.rtt.Backoff()
		c.tm.retx.Add(uint64(len(resend)))
		c.writeAll(resend)
	}
	return true
}
