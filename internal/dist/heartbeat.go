package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"paw/internal/serve"
)

// Heartbeater is the worker side of the membership protocol: it performs the
// join handshake against the master's client port, then beats on a fixed
// period so the failure detector keeps the worker Alive, and finally asks
// for a graceful leave (the master drains the worker's partitions before
// answering). It speaks either transport — the binary frame protocol or the
// legacy gob envelope — matching whatever the master serves.
//
// A Heartbeater survives connection loss: each failed call drops the cached
// connection and the next call redials, so a master restart shows up as a
// few missed beats, not a dead worker process.
type Heartbeater struct {
	addr      string
	transport Transport

	mu  sync.Mutex
	mux *serve.Mux
	gob *conn

	index atomic.Int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewHeartbeater targets a master's client port over the given transport.
func NewHeartbeater(masterAddr string, t Transport) *Heartbeater {
	h := &Heartbeater{
		addr:      masterAddr,
		transport: t,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	h.index.Store(-1)
	return h
}

// Index returns the slot the master assigned at join time (-1 before Join).
func (h *Heartbeater) Index() int { return int(h.index.Load()) }

// call performs one membership exchange, redialing lazily and dropping the
// cached connection on any transport error so the next call starts clean.
func (h *Heartbeater) call(ctx context.Context, req MemberRequest) (MemberResponse, error) {
	var resp MemberResponse
	var err error
	if h.transport == TransportGob {
		resp, err = h.callGob(ctx, req)
	} else {
		resp, err = h.callMux(ctx, req)
	}
	if err != nil {
		if !serve.IsNotSent(err) {
			h.dropConn()
		}
		return MemberResponse{}, err
	}
	if resp.Err != "" {
		// The master executed and refused (checksum mismatch, unknown op):
		// the connection is healthy, the request is not.
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

func (h *Heartbeater) callMux(ctx context.Context, req MemberRequest) (MemberResponse, error) {
	h.mu.Lock()
	mx := h.mux
	if mx == nil {
		var err error
		mx, err = serve.DialMux(h.addr)
		if err != nil {
			h.mu.Unlock()
			return MemberResponse{}, fmt.Errorf("dist: dialing master %s: %w", h.addr, err)
		}
		h.mux = mx
	}
	h.mu.Unlock()
	var resp MemberResponse
	deadline, _ := ctx.Deadline()
	err := mx.Call(ctx, deadline, msgMemberReq, &req, func(typ byte, payload []byte) error {
		if typ != msgMemberResp {
			return fmt.Errorf("dist: unexpected frame type %d for member response", typ)
		}
		return resp.UnmarshalWire(payload)
	})
	return resp, err
}

func (h *Heartbeater) callGob(ctx context.Context, req MemberRequest) (MemberResponse, error) {
	h.mu.Lock()
	c := h.gob
	if c == nil {
		nc, err := net.Dial("tcp", h.addr)
		if err != nil {
			h.mu.Unlock()
			return MemberResponse{}, fmt.Errorf("dist: dialing master %s: %w", h.addr, err)
		}
		c = newConn(nc)
		h.gob = c
	}
	h.mu.Unlock()
	// The gob session loop carries membership inside the query exchange.
	qreq := QueryRequest{Member: &req}
	var qresp QueryResponse
	if err := c.call(ctx, &qreq, &qresp); err != nil {
		return MemberResponse{}, err
	}
	if qresp.Member == nil {
		return MemberResponse{}, errors.New("dist: master answered a member request without a member response")
	}
	return *qresp.Member, nil
}

func (h *Heartbeater) dropConn() {
	h.mu.Lock()
	mx, c := h.mux, h.gob
	h.mux, h.gob = nil, nil
	h.mu.Unlock()
	if mx != nil {
		mx.Close()
	}
	if c != nil {
		c.Close()
	}
}

// Join registers with the master: index -1 resolves by the advertised
// address (a fresh join gets a new slot; a known address revives its slot),
// sum is the membership.Checksum of the partition IDs this worker hosts. On
// success the assigned slot is remembered for subsequent beats.
func (h *Heartbeater) Join(ctx context.Context, index int, advertise string, sum uint64) (MemberResponse, error) {
	resp, err := h.call(ctx, MemberRequest{Op: MemberJoin, Index: index, Addr: advertise, Sum: sum})
	if err != nil {
		return resp, err
	}
	h.index.Store(int64(resp.Index))
	return resp, nil
}

// Beat sends one heartbeat for the joined slot.
func (h *Heartbeater) Beat(ctx context.Context) (MemberResponse, error) {
	idx := h.index.Load()
	if idx < 0 {
		return MemberResponse{}, errors.New("dist: heartbeat before join")
	}
	return h.call(ctx, MemberRequest{Op: MemberBeat, Index: int(idx)})
}

// Leave asks the master for a graceful leave. The call returns only after
// the master has drained this worker's partitions onto the remaining
// members (or refused), so the caller may shut down on success without any
// query ever missing rows.
func (h *Heartbeater) Leave(ctx context.Context) (MemberResponse, error) {
	idx := h.index.Load()
	if idx < 0 {
		return MemberResponse{}, errors.New("dist: leave before join")
	}
	return h.call(ctx, MemberRequest{Op: MemberLeave, Index: int(idx)})
}

// Start launches the background beat loop (default period 500ms). Each beat
// runs under its own deadline so a wedged master delays, never wedges, the
// loop. Start may be called once; Close stops the loop.
func (h *Heartbeater) Start(every time.Duration) {
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	if !h.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		timeout := every
		if timeout < time.Second {
			timeout = time.Second
		}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				_, err := h.Beat(ctx)
				cancel()
				if err != nil {
					// Transient: the connection was dropped above and the
					// next tick redials. The master's failure detector is
					// the authority on how many misses matter.
					continue
				}
			}
		}
	}()
}

// Close stops the beat loop and drops any cached connection. It does not
// send a leave — call Leave first for a graceful departure.
func (h *Heartbeater) Close() {
	h.stopOnce.Do(func() { close(h.stop) })
	if h.started.Load() {
		<-h.done
	}
	h.dropConn()
}
