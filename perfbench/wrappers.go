package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"iqpaths/internal/simnet"
	"iqpaths/internal/transport"
)

// pktEntry is one packet a path wrapper accepted, in wire order. The
// stamps are nanoseconds since the run's time base.
type pktEntry struct {
	id     uint64
	stream uint32
	frame  uint64
	bytes  int
	due    int64 // generator's scheduled due time
	offEnd int64 // Offer return (traced runs only)
	sent   int64 // path wrapper accepted Send
	// batchIn/batchOut bracket the Conn wrapper's SendBatch or Send call
	// that carried the packet; batchOut stays 0 until that call returns.
	batchIn, batchOut int64
}

// pathFIFO records one path's accepted packets. A transport.Path and an
// RUDP connection both deliver in order, so the conn wrapper and the
// sink each match their next message to the next entry. Indices are
// absolute: q[0] is entry base.
type pathFIFO struct {
	mu     sync.Mutex
	q      []pktEntry
	base   uint64
	cursor uint64 // next entry the conn wrapper sees
	head   uint64 // next entry the sink receives
}

func (f *pathFIFO) push(e pktEntry) {
	f.mu.Lock()
	f.q = append(f.q, e)
	f.mu.Unlock()
}

// unpush drops the newest entry: its Send was refused.
func (f *pathFIFO) unpush() {
	f.mu.Lock()
	f.q = f.q[:len(f.q)-1]
	f.mu.Unlock()
}

// counts returns entries accepted and entries delivered so far.
func (f *pathFIFO) counts() (accepted, delivered uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base + uint64(len(f.q)), f.head
}

// enterBatch matches msgs to the next entries at the conn wrapper,
// stamping their batch entry time, and returns the first entry's index.
func (f *pathFIFO) enterBatch(msgs []*transport.Message, t int64) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	first := f.cursor
	for _, m := range msgs {
		if m.Kind != transport.KindData {
			continue
		}
		i := f.cursor - f.base
		if f.cursor < f.head || i >= uint64(len(f.q)) {
			return first, fmt.Errorf("conn wrapper saw stream %d with no accepted packet pending", m.Stream)
		}
		e := &f.q[i]
		if e.stream != m.Stream || e.frame != m.Frame || e.bytes != len(m.Payload) {
			return first, fmt.Errorf("conn wrapper saw stream %d frame %d len %d, path accepted stream %d frame %d len %d",
				m.Stream, m.Frame, len(m.Payload), e.stream, e.frame, e.bytes)
		}
		e.batchIn = t
		f.cursor++
	}
	return first, nil
}

// exitBatch stamps the batch return time on entries [from, cursor) the
// sink has not yet received.
func (f *pathFIFO) exitBatch(from uint64, t int64) {
	f.mu.Lock()
	for i := max(from, f.head); i < f.cursor; i++ {
		f.q[i-f.base].batchOut = t
	}
	f.mu.Unlock()
}

// pop matches one sink arrival to the oldest undelivered entry.
func (f *pathFIFO) pop(m *transport.Message) (pktEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.head - f.base
	if i >= uint64(len(f.q)) {
		return pktEntry{}, fmt.Errorf("sink received stream %d frame %d with no accepted packet pending", m.Stream, m.Frame)
	}
	e := f.q[i]
	if e.stream != m.Stream || e.frame != m.Frame || e.bytes != len(m.Payload) {
		return e, fmt.Errorf("sink received stream %d frame %d len %d, path accepted packet %d: stream %d frame %d len %d",
			m.Stream, m.Frame, len(m.Payload), e.id, e.stream, e.frame, e.bytes)
	}
	f.head++
	// Compact once the delivered prefix dominates the slice.
	if done := f.head - f.base; done >= 4096 && done*2 >= uint64(len(f.q)) {
		n := copy(f.q, f.q[done:])
		f.q = f.q[:n]
		f.base = f.head
	}
	return e, nil
}

// pathWrap is the benchmark's sched.PathService around a
// transport.Path: it logs each accepted packet into the path's FIFO and
// times the tick boundary through FlushTick.
type pathWrap struct {
	inner   *transport.Path
	fifo    *pathFIFO
	b       *liveBench
	blocked atomic.Uint64
}

func (w *pathWrap) ID() int            { return w.inner.ID() }
func (w *pathWrap) Name() string       { return w.inner.Name() }
func (w *pathWrap) QueuedPackets() int { return w.inner.QueuedPackets() }

// Send reads the packet's identity before handing it on: once accepted,
// the path's writer releases it to the pool.
func (w *pathWrap) Send(pkt *simnet.Packet) bool {
	e := pktEntry{
		id:     pkt.ID,
		stream: uint32(pkt.Stream),
		frame:  pkt.Frame,
		bytes:  int(pkt.Bits) / 8,
		sent:   w.b.now(),
	}
	e.due, e.offEnd = w.b.log.lookup(pkt.ID, pkt.Stream, w.b.chk)
	w.fifo.push(e)
	if !w.inner.Send(pkt) {
		w.fifo.unpush()
		w.blocked.Add(1)
		return false
	}
	if w.b.tr != nil && w.b.inInterval(e.sent) {
		w.b.measuredSends.Add(1)
	}
	return true
}

// FlushTick brackets the path's flush so the tick timer sees where
// dispatch ended and the flush began.
func (w *pathWrap) FlushTick() {
	w.b.ticks.flushEnter(w.b)
	w.inner.FlushTick()
	w.b.ticks.flushExit(w.b)
}

// connWrap is the benchmark's transport.Conn around an RUDP
// connection. It implements SendBatch so transport.Path keeps its
// batched write path.
type connWrap struct {
	*transport.RUDPConn
	fifo *pathFIFO
	b    *liveBench
}

func (c *connWrap) Send(m *transport.Message) error {
	return c.send([]*transport.Message{m}, func() error { return c.RUDPConn.Send(m) })
}

func (c *connWrap) SendBatch(msgs []*transport.Message) error {
	return c.send(msgs, func() error { return c.RUDPConn.SendBatch(msgs) })
}

func (c *connWrap) send(msgs []*transport.Message, call func() error) error {
	t := c.b.now()
	first, err := c.fifo.enterBatch(msgs, t)
	if err != nil {
		c.b.chk.fail("%v", err)
	}
	err = call()
	end := c.b.now()
	c.fifo.exitBatch(first, end)
	if c.b.tr != nil && c.b.inInterval(t) {
		c.b.tr.sample("transport.sendbatch_us", float64(end-t)/1e3)
		c.b.tr.sample("transport.batch_size", float64(len(msgs)))
	}
	return err
}

// offerLog holds, per packet ID, what the generator offered. The k-th
// Offer call gets packet ID k, so ID k lives at index k-1. It is
// written by the generator and read by the path wrappers, which run on
// the driver goroutine or on shard goroutines behind the tick barrier.
//
// Records live in fixed-size chunks, so the log's heap grows in small
// steps rather than by whole-slice reallocations, and heap_peak_mb does
// not jump with where a run ends relative to a reallocation.
type offerLog struct {
	chunks []*[offerChunk]offerRec
	n      uint64
}

const offerChunk = 1 << 14

type offerRec struct {
	due, offEnd int64
	stream      int32
}

func (l *offerLog) add(due int64, stream int, offEnd int64) {
	if l.n%offerChunk == 0 {
		l.chunks = append(l.chunks, new([offerChunk]offerRec))
	}
	l.chunks[l.n/offerChunk][l.n%offerChunk] = offerRec{due: due, offEnd: offEnd, stream: int32(stream)}
	l.n++
}

// lookup returns packet id's due time and Offer return time, failing the
// run if the ID does not name an Offer of the same stream.
func (l *offerLog) lookup(id uint64, stream int, chk *checks) (due, offEnd int64) {
	if id == 0 || id > l.n {
		chk.fail("packet ID %d (stream %d) names no Offer", id, stream)
		return 0, 0
	}
	r := &l.chunks[(id-1)/offerChunk][(id-1)%offerChunk]
	if int(r.stream) != stream {
		chk.fail("packet ID %d is stream %d, but that Offer was for stream %d", id, stream, r.stream)
	}
	return r.due, r.offEnd
}

// checks collects output-check failures; any failure fails the run.
type checks struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checks) failures() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, append([]string(nil), c.first...)
}
