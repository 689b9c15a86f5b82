package transport

import (
	"sync"
	"sync/atomic"
)

// Pooled wire buffers. Every datagram that crosses the batch boundary —
// marshaled RUDP frames held for retransmission, demux receive buffers,
// relay store-and-forward copies — used to be a fresh allocation; at wire
// speed that makes the garbage collector the second consumer of transport
// time. WireBufs recycle those slices under the same single-owner contract
// as simnet's packet arena (internal/simnet/pool.go): a buffer obtained
// from AcquireWire is owned by exactly one party at a time, whoever
// retires it calls ReleaseWire, and releasing twice panics — silently
// double-pooling would hand one backing array to two concurrent owners.
//
// Across a WriteBatch/ReadBatch call the kernel copies the bytes during
// the syscall, so ownership never transfers to the BatchConn: the caller
// that filled the buffer still owns it when the call returns and decides
// when it retires (an RUDP frame lives in the sender's send window until
// its cumulative ack; a relay copy dies once the pacer forwards it).

// WireBuf is one pooled datagram buffer. B is the live contents; its
// backing array survives release and grows to the largest datagram the
// buffer ever carried.
type WireBuf struct {
	B      []byte
	pooled bool
}

// Grow returns B resized to n bytes (contents unspecified), reallocating
// the backing array only when it has never been that large.
func (wb *WireBuf) Grow(n int) []byte {
	if cap(wb.B) < n {
		wb.B = make([]byte, n)
	}
	wb.B = wb.B[:n]
	return wb.B
}

// wireBufCap seeds new buffers at a typical datagram size; buffers grow on
// demand (demux receive buffers reach rudpMaxDatagram) and the pool keeps
// the grown arrays.
const wireBufCap = 2048

var wireArena struct {
	pool     sync.Pool
	acquired atomic.Uint64
	released atomic.Uint64
}

// AcquireWire returns an empty wire buffer owned by the caller.
func AcquireWire() *WireBuf {
	wireArena.acquired.Add(1)
	wb, _ := wireArena.pool.Get().(*WireBuf)
	if wb == nil {
		wb = &WireBuf{B: make([]byte, 0, wireBufCap)}
	}
	wb.pooled = false
	wb.B = wb.B[:0]
	return wb
}

// ReleaseWire retires wb into the pool. The caller must hold the only live
// reference; the backing array will be handed to the next acquirer.
// Releasing the same buffer twice panics.
func ReleaseWire(wb *WireBuf) {
	if wb == nil {
		return
	}
	if wb.pooled {
		panic("transport: double release of wire buffer")
	}
	wb.pooled = true
	wireArena.released.Add(1)
	wireArena.pool.Put(wb)
}

// WireOutstanding returns the number of wire buffers acquired and not yet
// released — the leak check for tests and the pool gauge.
func WireOutstanding() int64 {
	return int64(wireArena.acquired.Load()) - int64(wireArena.released.Load())
}
