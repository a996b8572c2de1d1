package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dist"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/workload"
)

// ServingOptions tunes the serving benchmark independently of the dataset
// config; the zero value means "use the defaults".
type ServingOptions struct {
	// Workers is the worker-process count of the in-process cluster
	// (default 3).
	Workers int
	// PointDuration is the closed-loop measurement window per (transport,
	// mode, concurrency) point (default 250ms).
	PointDuration time.Duration
	// Concurrency is the sweep (default 1, 2, 4, 8, 16, 32, 64).
	Concurrency []int
}

func (o ServingOptions) normalized() ServingOptions {
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.PointDuration <= 0 {
		o.PointDuration = 250 * time.Millisecond
	}
	if len(o.Concurrency) == 0 {
		o.Concurrency = []int{1, 2, 4, 8, 16, 32, 64}
	}
	return o
}

// ServingPoint is one closed-loop measurement: a transport, a load mode and
// a concurrency level, with the achieved throughput and latency quantiles.
type ServingPoint struct {
	// Transport is "binary" (multiplexed frame protocol) or "gob" (legacy
	// codec-per-connection, the baseline).
	Transport string `json:"transport"`
	// Mode is the load shape: "pipeline" drives one shared client
	// connection from N goroutines (the single-client call-throughput
	// experiment — the legacy client serialises on its connection mutex,
	// the multiplexed client pipelines); "clients" gives every goroutine
	// its own connection (the server-saturation experiment).
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	Queries     int     `json:"queries"`
	QPS         float64 `json:"qps"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	// SharedScans counts worker kernel scans avoided during this point by
	// coalescing onto an identical in-flight scan (scan sharing). Only
	// concurrent in-flight requests can share, so this is ~0 at concurrency 1
	// and for the gob pipeline mode (which serialises on the connection).
	SharedScans int64 `json:"shared_scans"`
}

// ServingSummary condenses one transport's sweep: the best single-client
// (one-connection) throughput and the saturation point of the many-clients
// sweep.
type ServingSummary struct {
	Transport string `json:"transport"`
	// SingleClientQPS is the best throughput one client connection achieved
	// across pipeline depths.
	SingleClientQPS float64 `json:"single_client_qps"`
	// SaturationQPS is the highest throughput of the many-clients sweep and
	// SaturationConcurrency the client count that reached it; beyond this
	// point adding clients does not add throughput.
	SaturationQPS         float64 `json:"saturation_qps"`
	SaturationConcurrency int     `json:"saturation_concurrency"`
	// P99AtSaturationMicros is the tail latency at the saturation point.
	P99AtSaturationMicros float64 `json:"p99_at_saturation_us"`
}

// ServingReport is the machine-readable serving-path snapshot written to
// BENCH_serving.json.
type ServingReport struct {
	Meta       Meta     `json:"meta"`
	Rows       int      `json:"rows"`
	Workers    int      `json:"workers"`
	Statements []string `json:"statements"`
	// PointMillis is the closed-loop window per measured point.
	PointMillis int64            `json:"point_ms"`
	Points      []ServingPoint   `json:"points"`
	Summaries   []ServingSummary `json:"summaries"`
	// MuxSpeedupSingleClient is binary/gob on SingleClientQPS — the
	// multiplexing payoff on one connection. MuxSpeedupSaturation is the
	// same ratio on SaturationQPS.
	MuxSpeedupSingleClient float64 `json:"mux_speedup_single_client"`
	MuxSpeedupSaturation   float64 `json:"mux_speedup_saturation"`
}

// servingBenchStatements are the benchmark's query mix, rotated round-robin
// by every load goroutine. The harness dataset is projected to Config.Dims
// attributes and normalized to [0,1] per dimension (see Config.tpch), so
// the predicates are expressed on the normalized domain.
var servingBenchStatements = []string{
	"SELECT * FROM t WHERE l_quantity >= 0.2 AND l_quantity <= 0.4",
	"SELECT * FROM t WHERE l_extendedprice BETWEEN 0.1 AND 0.7",
	"SELECT * FROM t WHERE l_discount <= 0.1 OR l_discount >= 0.9",
	"SELECT * FROM t",
}

// queryer is the common surface of dist.Client and dist.MuxClient.
type queryer interface {
	Query(sql string) (dist.QueryResponse, error)
}

// servingCluster is the in-process fleet the benchmark drives: one worker
// set shared by a binary-transport master and a gob-transport master, so
// both transports answer over identical data and placement.
type servingCluster struct {
	workers  []*dist.Worker
	regs     []*obs.Registry // one per worker, for scan-sharing telemetry
	masters  map[string]*dist.Master
	addrs    map[string]string // transport name -> master client address
	shutdown []func()
}

// sharedScans sums the scan-sharing counter across the worker fleet; callers
// diff two readings to attribute shared scans to a measurement window.
func (c *servingCluster) sharedScans() int64 {
	var total int64
	for _, reg := range c.regs {
		total += reg.Snapshot().Counter(dist.MetricWorkerSharedScans)
	}
	return total
}

func (c *servingCluster) close() {
	for i := len(c.shutdown) - 1; i >= 0; i-- {
		c.shutdown[i]()
	}
}

// startServingCluster materialises the dataset, starts the workers and one
// master per transport.
func startServingCluster(cfg Config, opt ServingOptions) (*servingCluster, error) {
	data := cfg.tpch()
	n := data.NumRows()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(25, cfg.Seed))
	l := core.Build(data, data.Sample(cfg.sampleRowsFor(n), cfg.Seed+1), data.Domain(), hist, core.Params{MinRows: cfg.minRowsFor(n)})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 2048})

	place := placement.RoundRobin(l, opt.Workers)
	perWorker := make([][]layout.ID, opt.Workers)
	for id, w := range place {
		perWorker[w] = append(perWorker[w], id)
	}
	c := &servingCluster{masters: map[string]*dist.Master{}, addrs: map[string]string{}}
	addrs := make([]string, opt.Workers)
	for w := 0; w < opt.Workers; w++ {
		wk := dist.NewWorker(store, perWorker[w])
		reg := obs.New()
		wk.SetMetrics(reg)
		c.regs = append(c.regs, reg)
		addr, err := wk.Start("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, wk)
		c.shutdown = append(c.shutdown, func() { wk.Close() })
		addrs[w] = addr
	}
	for _, tr := range []dist.Transport{dist.TransportBinary, dist.TransportGob} {
		rm, err := router.NewMaster(l, data.Names())
		if err != nil {
			c.close()
			return nil, err
		}
		m, err := dist.NewMaster(rm, addrs, place)
		if err != nil {
			c.close()
			return nil, err
		}
		mcfg := dist.DefaultConfig()
		mcfg.Transport = tr
		// The result cache would turn the steady-state workload into pure
		// cache hits (~zero service time), so every point would measure the
		// cache instead of the transport and execution path it sits in front
		// of. The cache has its own unit tests; keep it out of the benchmark.
		mcfg.ResultCacheSize = 0
		m.Configure(mcfg)
		maddr, err := m.Start("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.masters[tr.String()] = m
		c.addrs[tr.String()] = maddr
		c.shutdown = append(c.shutdown, func() { m.Close() })
	}
	return c, nil
}

// drive runs a closed loop: concurrency goroutines issue the statement mix
// against their assigned client for the window, recording every call
// latency.
func drive(clients []queryer, concurrency int, window time.Duration) (ServingPoint, error) {
	latencies := make([][]time.Duration, concurrency)
	errs := make([]error, concurrency)
	deadline := time.Now().Add(window)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := clients[g%len(clients)]
			for i := 0; time.Now().Before(deadline); i++ {
				sql := servingBenchStatements[(g+i)%len(servingBenchStatements)]
				t0 := time.Now()
				if _, err := cl.Query(sql); err != nil {
					errs[g] = fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				latencies[g] = append(latencies[g], time.Since(t0))
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ServingPoint{}, err
		}
	}
	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p := ServingPoint{Concurrency: concurrency, Queries: len(all)}
	if len(all) > 0 && elapsed > 0 {
		p.QPS = float64(len(all)) / elapsed.Seconds()
		p.P50Micros = float64(all[len(all)/2].Microseconds())
		p.P99Micros = float64(all[len(all)*99/100].Microseconds())
	}
	return p, nil
}

// ServingBench measures the serving front-end end to end over loopback TCP:
// for each transport, a single-connection pipeline-depth sweep (the
// multiplexing payoff) and a many-clients saturation sweep (qps, p50, p99,
// saturation point). Both transports drive the same workers and data in the
// same process, so the comparison isolates the protocol stack.
func ServingBench(cfg Config, opt ServingOptions) (ServingReport, error) {
	opt = opt.normalized()
	c, err := startServingCluster(cfg, opt)
	if err != nil {
		return ServingReport{}, err
	}
	defer c.close()

	rep := ServingReport{
		Meta:        Meta{Schema: ServingSchema},
		Rows:        cfg.TPCHRows,
		Workers:     opt.Workers,
		Statements:  servingBenchStatements,
		PointMillis: opt.PointDuration.Milliseconds(),
	}

	dialOne := func(transport string) (queryer, func(), error) {
		if transport == "gob" {
			cl, err := dist.Dial(c.addrs[transport])
			if err != nil {
				return nil, nil, err
			}
			return cl, func() { cl.Close() }, nil
		}
		cl, err := dist.DialMux(c.addrs[transport])
		if err != nil {
			return nil, nil, err
		}
		return cl, func() { cl.Close() }, nil
	}

	for _, transport := range []string{"gob", "binary"} {
		summary := ServingSummary{Transport: transport}

		// Warm the master (worker links, caches) before any timed window.
		warm, closeWarm, err := dialOne(transport)
		if err != nil {
			return rep, err
		}
		for _, sql := range servingBenchStatements {
			if _, err := warm.Query(sql); err != nil {
				closeWarm()
				return rep, fmt.Errorf("%s warmup %q: %w", transport, sql, err)
			}
		}
		closeWarm()

		// Pipeline sweep: one connection, N goroutines.
		one, closeOne, err := dialOne(transport)
		if err != nil {
			return rep, err
		}
		for _, conc := range opt.Concurrency {
			shared0 := c.sharedScans()
			p, err := drive([]queryer{one}, conc, opt.PointDuration)
			if err != nil {
				closeOne()
				return rep, fmt.Errorf("%s pipeline@%d: %w", transport, conc, err)
			}
			p.Transport, p.Mode = transport, "pipeline"
			p.SharedScans = c.sharedScans() - shared0
			rep.Points = append(rep.Points, p)
			if p.QPS > summary.SingleClientQPS {
				summary.SingleClientQPS = p.QPS
			}
		}
		closeOne()

		// Saturation sweep: one connection per goroutine.
		for _, conc := range opt.Concurrency {
			clients := make([]queryer, conc)
			closers := make([]func(), conc)
			for i := range clients {
				cl, cls, err := dialOne(transport)
				if err != nil {
					return rep, err
				}
				clients[i], closers[i] = cl, cls
			}
			shared0 := c.sharedScans()
			p, err := drive(clients, conc, opt.PointDuration)
			for _, cls := range closers {
				cls()
			}
			if err != nil {
				return rep, fmt.Errorf("%s clients@%d: %w", transport, conc, err)
			}
			p.Transport, p.Mode = transport, "clients"
			p.SharedScans = c.sharedScans() - shared0
			rep.Points = append(rep.Points, p)
			if p.QPS > summary.SaturationQPS {
				summary.SaturationQPS = p.QPS
				summary.SaturationConcurrency = p.Concurrency
				summary.P99AtSaturationMicros = p.P99Micros
			}
		}
		rep.Summaries = append(rep.Summaries, summary)
	}

	var gobSum, binSum *ServingSummary
	for i := range rep.Summaries {
		switch rep.Summaries[i].Transport {
		case "gob":
			gobSum = &rep.Summaries[i]
		case "binary":
			binSum = &rep.Summaries[i]
		}
	}
	if gobSum != nil && binSum != nil {
		if gobSum.SingleClientQPS > 0 {
			rep.MuxSpeedupSingleClient = binSum.SingleClientQPS / gobSum.SingleClientQPS
		}
		if gobSum.SaturationQPS > 0 {
			rep.MuxSpeedupSaturation = binSum.SaturationQPS / gobSum.SaturationQPS
		}
	}
	return rep, nil
}
