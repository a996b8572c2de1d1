package serve

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Handler executes one request frame and returns the response message. It
// is called from the session's handler goroutines, so implementations must
// be safe for concurrent use. The payload is only valid for the duration of
// the call. A non-nil error is session-fatal: no response can be produced
// and the connection is dropped (per-request failures travel inside the
// response message instead).
type Handler func(typ byte, payload []byte) (respTyp byte, resp Marshaler, err error)

// request is one decoded frame on its way from the read loop to a handler
// goroutine. The payload buffer belongs to the session pool.
type request struct {
	typ     byte
	seq     uint64
	payload []byte
}

// ServeConn runs one binary-protocol session: frames are read from r
// (which wraps c and may hold peeked preamble bytes), each request is
// handed to one of at most maxInflight long-lived handler goroutines, and
// responses are written back tagged with the request's sequence number, in
// completion order rather than arrival order. That is what lets a session
// pipeline: a cheap request is never stuck behind an expensive one.
//
// Handler goroutines are spawned lazily — only when a frame arrives and
// every existing one is busy — and then stay for the life of the
// connection, so a steady stream of requests reuses warm goroutines (and
// their already-grown stacks) instead of paying a spawn per frame. When all
// maxInflight handlers are busy the read loop blocks: no further frame is
// read or dispatched until one finishes.
//
// ServeConn returns when the connection dies or a handler reports a fatal
// error; its handler goroutines have all exited by then. The caller still
// owns c and closes it.
func ServeConn(c net.Conn, r io.Reader, maxInflight int, h Handler) error {
	if maxInflight < 1 {
		maxInflight = 1
	}
	var (
		wmu  sync.Mutex
		wbuf []byte
		pbuf []byte
		wg   sync.WaitGroup
		pool = sync.Pool{New: func() any { return []byte(nil) }}

		emu  sync.Mutex
		ferr error       // first fatal error (handler or response write)
		dead atomic.Bool // set with ferr: queued requests are dropped
	)
	fatal := func(err error) {
		emu.Lock()
		if ferr == nil {
			ferr = err
		}
		emu.Unlock()
		dead.Store(true)
		c.Close() // unblocks the read loop and any blocked writer
	}
	handle := func(q request) {
		defer pool.Put(q.payload[:0])
		if dead.Load() {
			return
		}
		respTyp, resp, herr := h(q.typ, q.payload)
		if herr != nil {
			fatal(fmt.Errorf("serve: handler for frame type %d: %w", q.typ, herr))
			return
		}
		wmu.Lock()
		pbuf = resp.AppendWire(pbuf[:0])
		wbuf = AppendFrame(wbuf[:0], respTyp, q.seq, pbuf)
		_, werr := c.Write(wbuf)
		wmu.Unlock()
		if werr != nil {
			fatal(werr)
		}
	}
	// work is unbuffered: a send succeeds at once exactly when some handler
	// is idle in its receive, which is how the read loop tells "hand it to a
	// warm handler" from "spawn one" without tracking idleness itself.
	work := make(chan request)
	handlers := 0
	var hdr [headerLen]byte
	for {
		buf := pool.Get().([]byte)
		typ, seq, payload, err := ReadFrame(r, &hdr, buf)
		if err != nil {
			close(work)
			wg.Wait()
			emu.Lock()
			defer emu.Unlock()
			if ferr != nil {
				return ferr
			}
			return err
		}
		q := request{typ: typ, seq: seq, payload: payload}
		select {
		case work <- q:
			continue
		default:
		}
		if handlers < maxInflight {
			handlers++
			wg.Add(1)
			go func(q request) {
				defer wg.Done()
				handle(q)
				for q := range work {
					handle(q)
				}
			}(q)
			continue
		}
		work <- q // every handler is busy: the in-flight bound holds here
	}
}
