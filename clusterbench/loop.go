package main

import (
	"errors"
	"sort"
	"sync"
	"syscall"
	"time"

	"paw/internal/dist"
	"paw/internal/serve"
)

// tally accumulates one phase's outcomes.
type tally struct {
	// lat[i] is an answered statement's latency and at[i] when it was sent
	// (closed loop) or due (open loop), from the start of the phase.
	lat       []time.Duration
	at        []time.Duration
	attempted int
	errs      int
	shed      int
	wrong     int
	checked   int
	bytes     int64
	firstErr  error
	mismatch  string
}

// record checks one answer against the oracle and counts it.
func (t *tally) record(q stmt, resp dist.QueryResponse, err error, at, lat time.Duration) {
	t.attempted++
	if err != nil {
		t.errs++
		if errors.Is(err, serve.ErrOverloaded) {
			t.shed++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.bytes += resp.BytesScanned
	t.lat = append(t.lat, lat)
	t.at = append(t.at, at)
	if q.want >= 0 {
		t.checked++
		if resp.Rows != q.want {
			t.wrong++
			if t.mismatch == "" {
				t.mismatch = q.sql
			}
		}
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.at = append(t.at, o.at...)
	t.attempted += o.attempted
	t.errs += o.errs
	t.shed += o.shed
	t.wrong += o.wrong
	t.checked += o.checked
	t.bytes += o.bytes
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	if t.mismatch == "" {
		t.mismatch = o.mismatch
	}
}

// closedLoop runs one goroutine per client for d; each sends its next
// statement when the previous reply arrives.
func closedLoop(clients []*dist.MuxClient, s *stream, d time.Duration) tally {
	parts := make([]tally, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(t *tally, cl *dist.MuxClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := s.next()
				t0 := time.Now()
				resp, err := cl.Query(q.sql)
				t.record(q, resp, err, t0.Sub(start), time.Since(t0))
			}
		}(&parts[i], cl)
	}
	wg.Wait()
	var all tally
	for i := range parts {
		all.merge(&parts[i])
	}
	return all
}

// openLoop sends statements on a fixed schedule of rate per second for d.
// Request k is due at start + k/rate; client goroutine g sends the requests
// with k ≡ g (mod len(clients)). A request's latency runs from its due time,
// so a stall also charges the requests queued behind it; late records how
// far behind schedule each request was actually sent. Requests still unsent
// at start + 2d are not sent and count as failed, which bounds the phase
// when the cluster cannot keep up with the rate.
func openLoop(clients []*dist.MuxClient, s *stream, rate float64, d time.Duration) (t tally, late []time.Duration) {
	total := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	parts := make([]tally, len(clients))
	lates := make([][]time.Duration, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for g, cl := range clients {
		wg.Add(1)
		go func(g int, cl *dist.MuxClient) {
			defer wg.Done()
			for k := g; k < total; k += len(clients) {
				due := start.Add(time.Duration(k) * interval)
				sleepUntil(due)
				if time.Since(start) > 2*d {
					parts[g].record(stmt{want: -1}, dist.QueryResponse{}, errBehind, 0, 0)
					continue
				}
				q := s.next()
				lates[g] = append(lates[g], time.Since(due))
				resp, err := cl.Query(q.sql)
				parts[g].record(q, resp, err, due.Sub(start), time.Since(due))
			}
		}(g, cl)
	}
	wg.Wait()
	for g := range parts {
		t.merge(&parts[g])
		late = append(late, lates[g]...)
	}
	return t, late
}

var errBehind = errors.New("open loop: not sent, the generator fell more than the phase length behind")

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// own timers wake an idle process only at millisecond granularity, which
// would charge the generator's oversleep to every open-loop request.
func sleepUntil(t time.Time) {
	for {
		w := time.Until(t)
		if w <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(w))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
	}
}

// window is the length of the slices a phase is cut into. A phase's
// throughput and latency quantiles are the medians of the per-window
// values, so a short stall of the host (CPU steal, a neighbour's burst)
// moves one window rather than the whole run.
const window = time.Second

// windowStats returns the median over whole windows of the per-window
// throughput (answered statements sent in the window per second) and of
// the per-window latency quantiles p50 and p99 in microseconds.
func windowStats(t *tally, d time.Duration) (qps, p50, p99 float64) {
	n := int(d / window)
	if n < 1 {
		n = 1
	}
	lats := make([][]time.Duration, n)
	for i, at := range t.at {
		if w := int(at / window); w < n {
			lats[w] = append(lats[w], t.lat[i])
		}
	}
	var rates, q50, q99 []float64
	for _, l := range lats {
		if len(l) == 0 {
			continue
		}
		rates = append(rates, float64(len(l))/window.Seconds())
		q50 = append(q50, quantile(l, 0.5))
		q99 = append(q99, quantile(l, 0.99))
	}
	return median(rates), median(q50), median(q99)
}

// quantile returns the q-quantile (nearest rank) of ds in microseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i].Nanoseconds()) / 1e3
}
