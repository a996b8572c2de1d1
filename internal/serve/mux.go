package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Marshaler is a message that can append its binary encoding to a buffer,
// returning the extended slice (the append-style idiom keeps encoding
// allocation-free once the buffer has grown to steady state).
type Marshaler interface {
	AppendWire(buf []byte) []byte
}

// NotSentError reports that a call failed before its request bytes reached
// the wire: the connection was never touched and remains safe to reuse.
// Callers use this to distinguish a clean deadline/cancellation expiry from
// a poisoned stream that must be redialed.
type NotSentError struct{ Err error }

func (e *NotSentError) Error() string { return fmt.Sprintf("serve: request not sent: %v", e.Err) }
func (e *NotSentError) Unwrap() error { return e.Err }

// IsNotSent reports whether err guarantees the request never reached the
// wire (the connection is still clean).
func IsNotSent(err error) bool {
	var ns *NotSentError
	return errors.As(err, &ns)
}

// ClosedError reports a call that failed because the multiplexed connection
// is down; Cause is the connection-level error that killed it.
type ClosedError struct{ Cause error }

func (e *ClosedError) Error() string { return fmt.Sprintf("serve: connection down: %v", e.Cause) }
func (e *ClosedError) Unwrap() error { return e.Cause }

// errWriteExpired is the cause a mux dies with when a request's bytes were
// still being written when its deadline passed: the frame may be partially
// on the wire, so the stream cannot be trusted any more.
var errWriteExpired = errors.New("serve: request write still blocked at its deadline")

// muxReply hands one response frame from the reader goroutine to a waiter.
// The payload buffer belongs to the mux pool; the waiter returns it after
// decoding. expired marks the reaper's verdict instead of a frame: the
// waiter's deadline passed before its response arrived.
type muxReply struct {
	typ     byte
	payload []byte
	expired bool
}

// muxWaiter is one in-flight call: its reply channel and its deadline (zero:
// none).
type muxWaiter struct {
	ch       chan muxReply
	deadline time.Time
}

// Mux is the client side of one multiplexed binary-protocol connection:
// many goroutines issue Call concurrently and their requests pipeline over
// the single connection, with responses matched back by sequence number. A
// call abandoned by its context or deadline simply stops waiting — the late
// response is discarded by sequence on arrival — so deadlines and
// cancellations never poison the stream, unlike a shared codec pair.
//
// Deadlines are values, not timers: each waiter records its own, and one
// reaper timer per connection is armed at the earliest pending deadline.
// When it fires it expires every overdue waiter and re-arms at the next
// earliest. Calls that all carry the same timeout register ever-later
// deadlines, so the success path almost never touches the timer.
type Mux struct {
	c    net.Conn
	seq  atomic.Uint64
	pool sync.Pool // payload buffers handed reader -> waiter

	wmu  sync.Mutex
	wbuf []byte // frame scratch, reused across calls
	pbuf []byte // payload scratch, reused across calls
	// sending is the sequence number whose bytes are being written (0:
	// none). A write still in progress when its deadline passes is cut off
	// by closing the connection.
	sending atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]muxWaiter
	err     error // set once the connection is down
	done    chan struct{}
	// reaper fires at armed, the earliest deadline it was last asked for
	// (zero: not pending). Created on first use.
	reaper *time.Timer
	armed  time.Time
}

// NewMux sends the protocol preamble over c and starts the response reader.
// The mux owns c from here on.
func NewMux(c net.Conn) (*Mux, error) {
	if _, err := c.Write(Magic[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("serve: sending preamble: %w", err)
	}
	m := &Mux{
		c:       c,
		waiters: make(map[uint64]muxWaiter),
		done:    make(chan struct{}),
	}
	m.pool.New = func() any { return []byte(nil) }
	go m.readLoop()
	return m, nil
}

// Dial connects to addr and opens a mux on the connection.
func DialMux(addr string) (*Mux, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewMux(c)
}

// readLoop delivers response frames to their waiters until the connection
// dies; any terminal error fails every in-flight and future call.
func (m *Mux) readLoop() {
	var hdr [headerLen]byte
	for {
		buf := m.pool.Get().([]byte)
		typ, seq, payload, err := ReadFrame(m.c, &hdr, buf)
		if err != nil {
			m.closeWith(err)
			return
		}
		m.mu.Lock()
		w, ok := m.waiters[seq]
		if ok {
			delete(m.waiters, seq)
		}
		m.mu.Unlock()
		if !ok {
			// A late response to an abandoned call: discard by sequence.
			m.pool.Put(payload[:0])
			continue
		}
		w.ch <- muxReply{typ: typ, payload: payload} // buffered; never blocks
	}
}

// armLocked makes the reaper fire no later than d. Re-arming happens only
// when d is earlier than the pending fire time, or nothing is pending.
func (m *Mux) armLocked(d time.Time) {
	if !m.armed.IsZero() && !d.Before(m.armed) {
		return
	}
	m.armed = d
	if m.reaper == nil {
		m.reaper = time.AfterFunc(time.Until(d), m.reap)
		return
	}
	m.reaper.Reset(time.Until(d))
}

// reap expires every waiter whose deadline has passed and re-arms the
// reaper at the earliest deadline still pending. A waiter whose request is
// still being written kills the connection: that write is blocked past its
// deadline, and a partial frame leaves the stream unusable.
func (m *Mux) reap() {
	now := time.Now()
	var expired []chan muxReply
	kill := false
	m.mu.Lock()
	m.armed = time.Time{}
	var next time.Time
	for seq, w := range m.waiters {
		if w.deadline.IsZero() {
			continue
		}
		if !now.Before(w.deadline) {
			delete(m.waiters, seq)
			expired = append(expired, w.ch)
			kill = kill || m.sending.Load() == seq
			continue
		}
		if next.IsZero() || w.deadline.Before(next) {
			next = w.deadline
		}
	}
	if !next.IsZero() {
		m.armLocked(next)
	}
	m.mu.Unlock()
	for _, ch := range expired {
		ch <- muxReply{expired: true} // buffered; never blocks
	}
	if kill {
		m.closeWith(errWriteExpired)
	}
}

// closeWith marks the mux down with cause, failing all waiters exactly once.
func (m *Mux) closeWith(cause error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = cause
	waiters := m.waiters
	m.waiters = nil
	if m.reaper != nil {
		m.reaper.Stop()
	}
	close(m.done)
	m.mu.Unlock()
	m.c.Close()
	for _, w := range waiters {
		close(w.ch) // a closed reply channel means "connection down"
	}
}

// cause returns the error the connection died with.
func (m *Mux) cause() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close tears the connection down; in-flight calls fail with a ClosedError.
func (m *Mux) Close() error {
	m.closeWith(errors.New("serve: mux closed"))
	return nil
}

// send frames and writes one request. It returns a NotSentError when ctx
// or the deadline expired (or the mux was already down) before any byte was
// written. The write itself is bounded by the reaper, not by a connection
// deadline.
func (m *Mux) send(ctx context.Context, deadline time.Time, typ byte, seq uint64, req Marshaler) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := ctx.Err(); err != nil {
		return &NotSentError{Err: err}
	}
	// Mark the write before the last deadline check: a reaper run that
	// expires this call either precedes the mark (and the check below sees
	// the deadline passed) or follows it (and cuts the write off), so no
	// write can outlive its deadline unobserved.
	m.sending.Store(seq)
	defer m.sending.Store(0)
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return &NotSentError{Err: context.DeadlineExceeded}
	}
	if down := m.cause(); down != nil {
		return &ClosedError{Cause: down}
	}
	m.pbuf = req.AppendWire(m.pbuf[:0])
	m.wbuf = AppendFrame(m.wbuf[:0], typ, seq, m.pbuf)
	_, err := m.c.Write(m.wbuf)
	if err != nil {
		if cause := m.cause(); cause != nil {
			err = cause // the reaper (or the reader) closed the connection
		}
		// The frame may be partially written: the stream is unusable.
		err = fmt.Errorf("serve: writing request: %w", err)
		m.closeWith(err)
		return err
	}
	return nil
}

// decode hands a delivered response to dec and recycles its buffer.
func (m *Mux) decode(reply muxReply, dec func(typ byte, payload []byte) error) error {
	err := dec(reply.typ, reply.payload)
	m.pool.Put(reply.payload[:0])
	if err != nil {
		// The peer sent a frame this caller cannot decode: framing is
		// intact but the session is broken. Kill it.
		m.closeWith(err)
	}
	return err
}

// Call performs one pipelined request/response exchange: encode req, send it
// tagged with a fresh sequence number, and wait for the matching response,
// which is handed to dec (typ is the response frame's type byte; the payload
// is only valid during the callback). Concurrent calls interleave freely.
//
// deadline (zero: none) bounds the call without arming a timer of its own:
// the connection's reaper expires it with context.DeadlineExceeded. ctx
// still cancels the wait; a deadline on ctx is enforced only by ctx itself,
// so callers pass the one they want reaped explicitly.
//
// Error contract: a NotSentError means the connection was never touched; a
// ctx or deadline error after the send means the call was abandoned but the
// connection remains healthy (the response will be discarded on arrival);
// any other error means the connection is down and must be redialed.
func (m *Mux) Call(ctx context.Context, deadline time.Time, typ byte, req Marshaler, dec func(typ byte, payload []byte) error) error {
	seq := m.seq.Add(1)
	w := make(chan muxReply, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return &ClosedError{Cause: err}
	}
	m.waiters[seq] = muxWaiter{ch: w, deadline: deadline}
	if !deadline.IsZero() {
		m.armLocked(deadline)
	}
	m.mu.Unlock()

	if err := m.send(ctx, deadline, typ, seq, req); err != nil {
		m.mu.Lock()
		if m.waiters != nil {
			delete(m.waiters, seq)
		}
		m.mu.Unlock()
		return err
	}

	select {
	case reply, ok := <-w:
		if !ok {
			return &ClosedError{Cause: m.cause()}
		}
		if reply.expired {
			return context.DeadlineExceeded
		}
		return m.decode(reply, dec)
	case <-ctx.Done():
		m.mu.Lock()
		if m.waiters != nil {
			if _, still := m.waiters[seq]; still {
				delete(m.waiters, seq)
				m.mu.Unlock()
				return ctx.Err()
			}
		}
		m.mu.Unlock()
		// The response (or the reaper's expiry) raced the cancellation in;
		// prefer delivering it.
		if reply, ok := <-w; ok {
			if reply.expired {
				return context.DeadlineExceeded
			}
			return m.decode(reply, dec)
		}
		return &ClosedError{Cause: m.cause()}
	case <-m.done:
		return &ClosedError{Cause: m.cause()}
	}
}
