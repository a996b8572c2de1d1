package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"paw/internal/serve"
)

// Transport selects the master↔worker wire protocol.
type Transport int

const (
	// TransportBinary is the production path: the length-prefixed binary
	// frame protocol of internal/serve, with requests from many concurrent
	// queries pipelined over a small fixed pool of connections per worker and
	// responses matched back by sequence number.
	TransportBinary Transport = iota
	// TransportGob is the legacy one-gob-codec-per-connection protocol,
	// retained as the differential oracle for the binary path: both must
	// return byte-identical query results, including failures and partial
	// results.
	TransportGob
)

// String names the transport for logs and benchmark reports.
func (t Transport) String() string {
	if t == TransportGob {
		return "gob"
	}
	return "binary"
}

// workerLink is one master→worker transport endpoint. Implementations
// must be safe for concurrent scan calls.
type workerLink interface {
	// scan performs one ScanRequest round trip bounded by deadline (zero:
	// none) and cancelled by ctx. The error contract follows serve.Mux.Call:
	// a serve.NotSentError means the link was never touched and remains
	// healthy; any other failure means the caller should drop the link and
	// redial.
	scan(ctx context.Context, deadline time.Time, req *ScanRequest, resp *ScanResponse) error
	// admin performs one migration-control round trip (same deadline and
	// error contract as scan). Only the binary transport carries admin
	// frames.
	admin(ctx context.Context, deadline time.Time, req *AdminRequest, resp *AdminResponse) error
	close()
}

// gobLink adapts the legacy codec-pair connection to the link interface.
type gobLink struct{ c *conn }

// scan bounds the exchange with a context deadline: the gob codec pair is
// the differential oracle, not the serving path, so it keeps its
// timer-backed connection deadlines.
func (l *gobLink) scan(ctx context.Context, deadline time.Time, req *ScanRequest, resp *ScanResponse) error {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	return l.c.call(ctx, req, resp)
}

// admin fails: the gob worker loop decodes a homogeneous ScanRequest stream,
// so migration control cannot ride it. Migrations require TransportBinary;
// the gob path remains the query-time differential oracle.
func (l *gobLink) admin(context.Context, time.Time, *AdminRequest, *AdminResponse) error {
	return errors.New("dist: partition migration requires the binary transport (gob is the query-path oracle only)")
}

func (l *gobLink) close() { l.c.Close() }

// muxLink fans scan calls over a fixed pool of multiplexed binary
// connections round-robin. Any number of requests may be in flight on each
// connection; the pool exists to spread framing/write contention, not to
// bound concurrency.
type muxLink struct {
	muxes []*serve.Mux
	next  atomic.Uint32
}

// dialMuxLink opens n multiplexed connections to addr under deadline (zero:
// none) and ctx.
func dialMuxLink(ctx context.Context, deadline time.Time, addr string, n int) (*muxLink, error) {
	if n < 1 {
		n = 1
	}
	l := &muxLink{muxes: make([]*serve.Mux, 0, n)}
	d := net.Dialer{Deadline: deadline}
	for i := 0; i < n; i++ {
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			l.close()
			return nil, err
		}
		mx, err := serve.NewMux(nc)
		if err != nil {
			l.close()
			return nil, err
		}
		l.muxes = append(l.muxes, mx)
	}
	return l, nil
}

func (l *muxLink) scan(ctx context.Context, deadline time.Time, req *ScanRequest, resp *ScanResponse) error {
	mx := l.muxes[int(l.next.Add(1)-1)%len(l.muxes)]
	return mx.Call(ctx, deadline, msgScanReq, req, func(typ byte, payload []byte) error {
		if typ != msgScanResp {
			return fmt.Errorf("dist: unexpected frame type %d for scan response", typ)
		}
		return resp.UnmarshalWire(payload)
	})
}

func (l *muxLink) admin(ctx context.Context, deadline time.Time, req *AdminRequest, resp *AdminResponse) error {
	mx := l.muxes[int(l.next.Add(1)-1)%len(l.muxes)]
	return mx.Call(ctx, deadline, msgAdminReq, req, func(typ byte, payload []byte) error {
		if typ != msgAdminResp {
			return fmt.Errorf("dist: unexpected frame type %d for admin response", typ)
		}
		return resp.UnmarshalWire(payload)
	})
}

func (l *muxLink) close() {
	for _, mx := range l.muxes {
		if mx != nil {
			mx.Close()
		}
	}
}

// MuxClient speaks SQL to a master over the multiplexed binary protocol.
// Unlike the gob Client — whose connection mutex serialises exchanges — a
// MuxClient is safe for concurrent use and pipelines every in-flight query
// over its one connection; a deadline or cancellation abandons only the one
// call, never the connection.
type MuxClient struct {
	mux          *serve.Mux
	allowPartial atomic.Bool
}

// DialMux connects to a master's client port with the binary protocol.
func DialMux(addr string) (*MuxClient, error) {
	mx, err := serve.DialMux(addr)
	if err != nil {
		return nil, err
	}
	return &MuxClient{mux: mx}, nil
}

// SetAllowPartial opts this client's future queries into partial results.
// Safe to call concurrently with queries.
func (c *MuxClient) SetAllowPartial(v bool) { c.allowPartial.Store(v) }

// Query runs one SQL statement with no client-side deadline.
func (c *MuxClient) Query(sql string) (QueryResponse, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext runs one SQL statement under ctx. The deadline ships to the
// master (threaded through every worker scan) and bounds the local wait; an
// expiry abandons the call but leaves the connection healthy — the late
// response is discarded by sequence number.
func (c *MuxClient) QueryContext(ctx context.Context, sql string) (QueryResponse, error) {
	return c.call(ctx, sql, false)
}

// Explain runs one SQL statement with a forced trace (EXPLAIN ANALYZE): the
// master samples it regardless of its tracing configuration and the response
// carries the assembled span tree (QueryResponse.Spans), per-partition
// worker scans included.
func (c *MuxClient) Explain(ctx context.Context, sql string) (QueryResponse, error) {
	return c.call(ctx, sql, true)
}

func (c *MuxClient) call(ctx context.Context, sql string, explain bool) (QueryResponse, error) {
	req := QueryRequest{SQL: sql, AllowPartial: c.allowPartial.Load(), Trace: explain}
	d, ok := ctx.Deadline()
	if ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMillis = ms
	}
	var resp QueryResponse
	err := c.mux.Call(ctx, d, msgQueryReq, &req, func(typ byte, payload []byte) error {
		if typ != msgQueryResp {
			return fmt.Errorf("dist: unexpected frame type %d for query response", typ)
		}
		return resp.UnmarshalWire(payload)
	})
	if err != nil {
		return QueryResponse{}, err
	}
	if resp.Err != "" {
		return QueryResponse{}, respError(resp)
	}
	return resp, nil
}

// Close closes the client connection; in-flight queries fail.
func (c *MuxClient) Close() error { return c.mux.Close() }

// respError converts a response-carried failure into a client-side error,
// mapping typed codes onto their sentinel errors so callers can errors.Is.
func respError(resp QueryResponse) error {
	if resp.ErrCode == ErrCodeOverloaded {
		return fmt.Errorf("%s: %w", resp.Err, serve.ErrOverloaded)
	}
	return errors.New(resp.Err)
}

// errCodeFor maps a master-side failure to its wire code.
func errCodeFor(err error) int {
	if errors.Is(err, serve.ErrOverloaded) {
		return ErrCodeOverloaded
	}
	return ErrCodeNone
}
