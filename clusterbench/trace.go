package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"paw/internal/colstore"
	"paw/internal/dist"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/router"
	"paw/internal/serve"
	"paw/internal/sqlrew"
)

// span is one timed call. Spans of one statement share Query; Parent 0
// marks the statement's root.
type span struct {
	Query  int64  `json:"q"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(q int64, name string, parent int32) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Query: q, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int32) time.Duration {
	sp := &r.spans[id-1]
	sp.End = int64(time.Since(r.t0))
	return time.Duration(sp.End - sp.Start)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is one traced statement's breakdown. The named layers are
// timed by calling each layer's public entry point on the statement from
// outside the program; the two residuals are what those calls do not
// explain:
//
//	client        = clientWire + master + codecQuery
//	master        = rewrite + route + kernel + codecScan + unattributed
//
// so client = rewrite + route + kernel + codec + unattributed + clientWire
// holds for every statement.
type layerTimes struct {
	client, master                time.Duration
	rewrite, route, kernel, codec time.Duration
	unattributed, clientWire      time.Duration
	workerCall                    time.Duration
	workerCalls                   int64
}

// tracer runs the traced pass: for each statement it times the networked
// client call on the serving master, the same statement on a second,
// unstarted master in-process (its own caches, same workers), and the layer
// calls that master makes.
type tracer struct {
	c     *cluster
	probe *dist.Master
	rw    *sqlrew.Rewriter
	rm    *router.Master
	rec   recorder

	planHits, resultHits *obs.Counter
	callTimers           []*obs.Timer
	fanout               *obs.Histogram

	per []layerTimes

	ranges, parts, routedStmts int64
	modeled                    int64
	scan                       colstore.ScanStats
	fanoutSum                  float64
	fanoutN                    int64

	wire, frame, payload []byte
}

func newTracer(c *cluster) (*tracer, error) {
	probe, reg, err := c.newMaster()
	if err != nil {
		return nil, err
	}
	rw, err := sqlrew.New(c.data.Names())
	if err != nil {
		probe.Close()
		return nil, err
	}
	rm, err := router.NewMaster(c.layout, c.data.Names())
	if err != nil {
		probe.Close()
		return nil, err
	}
	return &tracer{
		c: c, probe: probe, rw: rw, rm: rm,
		rec:        recorder{t0: time.Now()},
		planHits:   reg.Counter(dist.MetricPlanCacheHits),
		resultHits: reg.Counter(dist.MetricResultCacheHits),
		callTimers: workerCallTimers(reg),
		fanout:     reg.Histogram(dist.MetricFanoutWidth, dist.FanoutBuckets()),
	}, nil
}

func (t *tracer) close() { t.probe.Close() }

func (t *tracer) callTotals() (ns, n int64) {
	for _, tm := range t.callTimers {
		ns += tm.TotalNs()
		n += tm.Count()
	}
	return ns, n
}

// run traces statements from s on one client until d has passed.
func (t *tracer) run(cl *dist.MuxClient, s *stream, d time.Duration) tally {
	var tl tally
	deadline := time.Now().Add(d)
	for k := int64(0); time.Now().Before(deadline); k++ {
		q := s.next()
		lt, resp, err := t.one(k, cl, q)
		if err != nil {
			tl.record(q, resp, err, 0, 0)
			continue
		}
		tl.record(q, resp, nil, 0, lt.client)
		t.per = append(t.per, lt)
	}
	return tl
}

// one traces statement q as query k. The networked and the in-process call
// alternate which goes first, so neither always finds warm CPU caches.
func (t *tracer) one(k int64, cl *dist.MuxClient, q stmt) (layerTimes, dist.QueryResponse, error) {
	var lt layerTimes
	root := t.rec.begin(k, "query", 0)
	defer t.rec.end(root)

	var resp dist.QueryResponse
	var err error
	clientCall := func() {
		sp := t.rec.begin(k, "dist.client_query", root)
		resp, err = cl.Query(q.sql)
		lt.client = t.rec.end(sp)
	}
	planHits, resultHits := t.planHits.Value(), t.resultHits.Value()
	callNs, calls := t.callTotals()
	fanN, fanSum := t.fanout.Count(), t.fanout.Sum()
	var mresp dist.QueryResponse
	var merr error
	masterCall := func() {
		sp := t.rec.begin(k, "dist.master_query", root)
		mresp, merr = t.probe.Query(q.sql)
		lt.master = t.rec.end(sp)
	}
	if k%2 == 0 {
		clientCall()
		masterCall()
	} else {
		masterCall()
		clientCall()
	}
	if err != nil {
		return lt, resp, err
	}
	if merr != nil {
		return lt, mresp, fmt.Errorf("in-process master: %w", merr)
	}
	if mresp.Rows != resp.Rows || mresp.BytesScanned != resp.BytesScanned {
		return lt, resp, fmt.Errorf("in-process master answered %d rows/%d bytes, client got %d/%d for %s",
			mresp.Rows, mresp.BytesScanned, resp.Rows, resp.BytesScanned, q.sql)
	}
	callNs2, calls2 := t.callTotals()
	lt.workerCalls = calls2 - calls
	if lt.workerCalls > 0 {
		lt.workerCall = time.Duration((callNs2 - callNs) / lt.workerCalls)
	}
	if n := t.fanout.Count() - fanN; n > 0 {
		t.fanoutSum += t.fanout.Sum() - fanSum
		t.fanoutN += n
	}
	planHit := t.planHits.Value() > planHits
	resultHit := t.resultHits.Value() > resultHits

	// The client hop's request and response frames.
	sp := t.rec.begin(k, "serve.codec.query", root)
	t.codecQuery(q.sql, &resp)
	codecQuery := t.rec.end(sp)
	lt.codec = codecQuery

	if !resultHit {
		// The probe ran the layers below; time each on this statement. A
		// plan-cache hit skipped rewrite and routing, so they count zero.
		var boxes []geom.Box
		var plans []router.Plan
		if planHit {
			boxes, plans, err = t.plan(q.sql)
		} else {
			sp := t.rec.begin(k, "sqlrew.rewrite", root)
			boxes, err = t.rw.RewriteSQL(q.sql)
			lt.rewrite = t.rec.end(sp)
			if err == nil {
				sp = t.rec.begin(k, "router.route", root)
				plans, err = t.route(boxes)
				lt.route = t.rec.end(sp)
			}
		}
		if err != nil {
			return lt, resp, err
		}
		t.ranges += int64(len(boxes))
		t.routedStmts++
		for _, p := range plans {
			t.parts += int64(p.NumScans())
			t.modeled += p.CostBytes(t.rm.Layout(), nil)
		}

		sp = t.rec.begin(k, "colstore.kernel", root)
		var st colstore.ScanStats
		for _, p := range plans {
			for _, r := range p.Ranges {
				for _, id := range r.Parts {
					ps, err := t.c.store.ScanPartition(id, r.Range)
					if err != nil {
						return lt, resp, err
					}
					st.Add(ps)
				}
			}
		}
		lt.kernel = t.rec.end(sp)
		if st.Matched != resp.Rows {
			return lt, resp, fmt.Errorf("kernel matched %d rows, cluster answered %d for %s", st.Matched, resp.Rows, q.sql)
		}
		t.scan.Add(st)

		sp = t.rec.begin(k, "serve.codec.scan", root)
		t.codecScan(plans, st)
		codecScan := t.rec.end(sp)
		lt.codec += codecScan
		lt.unattributed = lt.master - lt.rewrite - lt.route - lt.kernel - codecScan
	} else {
		lt.unattributed = lt.master
	}
	lt.clientWire = lt.client - lt.master - codecQuery
	return lt, resp, nil
}

// plan rewrites and routes without timing (used after a plan-cache hit, to
// learn what the kernel and the codec must process).
func (t *tracer) plan(sql string) ([]geom.Box, []router.Plan, error) {
	boxes, err := t.rw.RewriteSQL(sql)
	if err != nil {
		return nil, nil, err
	}
	plans, err := t.route(boxes)
	return boxes, plans, err
}

func (t *tracer) route(boxes []geom.Box) ([]router.Plan, error) {
	plans := make([]router.Plan, 0, len(boxes))
	for _, b := range boxes {
		p, err := t.rm.RouteRange(b)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// Frame type tags for the codec round trips; the values only label the
// frames, nothing dispatches on them.
const (
	frameQuery byte = 1
	frameScan  byte = 2
)

// roundTrip frames a message and reads it back, as one send and one
// receive do.
func (t *tracer) roundTrip(typ byte, m serve.Marshaler, into interface{ UnmarshalWire([]byte) error }) {
	t.wire = m.AppendWire(t.wire[:0])
	t.frame = serve.AppendFrame(t.frame[:0], typ, 1, t.wire)
	var hdr [17]byte
	_, _, payload, err := serve.ReadFrame(bytes.NewReader(t.frame), &hdr, t.payload)
	if err != nil {
		panic(err) // a frame just built in memory always reads back
	}
	t.payload = payload[:0]
	if err := into.UnmarshalWire(payload); err != nil {
		panic(err)
	}
}

func (t *tracer) codecQuery(sql string, resp *dist.QueryResponse) {
	req := dist.QueryRequest{SQL: sql}
	var req2 dist.QueryRequest
	t.roundTrip(frameQuery, &req, &req2)
	var resp2 dist.QueryResponse
	t.roundTrip(frameQuery, resp, &resp2)
}

// codecScan round-trips the scan request each worker receives for each
// range and a response of the same shape.
func (t *tracer) codecScan(plans []router.Plan, st colstore.ScanStats) {
	byWorker := make([][]layout.ID, numWorkers)
	for _, p := range plans {
		for _, r := range p.Ranges {
			for w := range byWorker {
				byWorker[w] = byWorker[w][:0]
			}
			for _, id := range r.Parts {
				w := t.c.place[id]
				byWorker[w] = append(byWorker[w], id)
			}
			for _, ids := range byWorker {
				if len(ids) == 0 {
					continue
				}
				req := dist.ScanRequest{Query: r.Range, IDs: ids, Seq: 1, Deadline: 1}
				var req2 dist.ScanRequest
				t.roundTrip(frameScan, &req, &req2)
				resp := dist.ScanResponse{Rows: st.Matched, BytesRead: st.BytesRead, BytesSkipped: st.BytesSkipped,
					GroupsRead: st.GroupsRead, GroupsSkipped: st.GroupsSkipped, FailedPartition: -1}
				var resp2 dist.ScanResponse
				t.roundTrip(frameScan, &resp, &resp2)
			}
		}
	}
}
