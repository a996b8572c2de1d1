package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"paw/internal/dist"
	"paw/internal/obs"
)

// runConfig is one invocation's settings.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	trace   bool
	rows    int
	setups  int
	out     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metrics (printed with --trace 0), in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"cpu_us_per_query", "us"},
	{"scan_bytes_per_query", "bytes"},
	{"heap_mb", "MB"},
}

// perLayer metrics (printed with --trace 1), in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"dataset.gen_s", "s"},
	{"core.build_s", "s"},
	{"blockstore.materialize_s", "s"},
	{"dist.start_s", "s"},
	{"layout.partitions", "count"},
	{"sqlrew.rewrite_us", "us"},
	{"sqlrew.rewrite_p99_us", "us"},
	{"sqlrew.ranges_per_query", "count"},
	{"router.route_us", "us"},
	{"router.route_p99_us", "us"},
	{"router.partitions_per_query", "count"},
	{"router.modeled_bytes_per_query", "bytes"},
	{"router.measured_over_modeled", "ratio"},
	{"colstore.kernel_us", "us"},
	{"colstore.kernel_p99_us", "us"},
	{"colstore.bytes_read_per_query", "bytes"},
	{"colstore.bytes_skipped_per_query", "bytes"},
	{"colstore.group_skip_ratio", "ratio"},
	{"colstore.match_ratio", "ratio"},
	{"serve.codec_us", "us"},
	{"serve.codec_p99_us", "us"},
	{"dist.master_query_us", "us"},
	{"dist.master_query_p99_us", "us"},
	{"dist.client_wire_us", "us"},
	{"dist.client_wire_p99_us", "us"},
	{"dist.unattributed_us", "us"},
	{"dist.unattributed_p99_us", "us"},
	{"dist.worker_call_p50_us", "us"},
	{"dist.worker_call_p99_us", "us"},
	{"dist.fanout_width", "workers"},
	{"dist.plan_cache_hit_ratio", "ratio"},
	{"dist.result_cache_hit_ratio", "ratio"},
	{"dist.shared_scans_per_query", "count"},
	{"dist.queries_shed", "count"},
	{"trace.client_p50_us", "us"},
	{"trace.layer_sum_p50_us", "us"},
	{"trace.untraced_p50_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.queries", "count"},
}

// info is printed before the result: the host and configuration the
// numbers belong to, sample counts and diagnostics.
type info struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Trace       bool           `json:"trace"`
	Seconds     float64        `json:"seconds"`
	Host        map[string]any `json:"host"`
	Config      map[string]any `json:"config"`
	Samples     map[string]int `json:"samples"`
	ErrorRate   float64        `json:"error_rate"`
	OracleShare float64        `json:"oracle_share"`
	SetupRuns   []float64      `json:"setup_runs_s"`
	// Open holds the open-loop phase's figures. They are reported but not
	// gated: on a shared virtual machine they follow the host's scheduling
	// latency more than the program (see workloads.go).
	Open          map[string]metric `json:"open_loop,omitempty"`
	FirstError    string            `json:"first_error,omitempty"`
	FirstMismatch string            `json:"first_mismatch,omitempty"`
	SpansFile     string            `json:"spans_file,omitempty"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// warmUp answers the historical queries once: it opens the worker links and
// faults the data in. Its statements are not part of the stream.
func warmUp(c *cluster) ([]stmt, []int, error) {
	var qs []stmt
	var rows []int
	for i, q := range c.hist {
		s := stmt{sql: renderSQL(c.data.Names(), q.Box), box: q.Box}
		resp, err := c.clients[i%len(c.clients)].Query(s.sql)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		qs = append(qs, s)
		rows = append(rows, resp.Rows)
	}
	return qs, rows, nil
}

// run executes one benchmark run.
func run(cfg runConfig) (result, info, error) {
	inf := info{
		Workload: cfg.spec.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Host: map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"os":         runtime.GOOS,
			"arch":       runtime.GOARCH,
		},
		Samples: map[string]int{},
	}
	res := result{Metrics: map[string]metric{}}

	// Set up several times and keep the last cluster; setup_s is the
	// median, so one slow set-up does not move it.
	var c *cluster
	var setups []float64
	var times []setupTimes
	var warm []stmt
	var warmRows []int
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.close()
			c = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		c, err = startCluster(cfg.spec.data, cfg.rows)
		if err != nil {
			return res, inf, err
		}
		warm, warmRows, err = warmUp(c)
		if err != nil {
			c.close()
			return res, inf, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		times = append(times, c.times)
	}
	defer c.close()
	inf.SetupRuns = setups
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	inf.Config = map[string]any{
		"rows":           c.data.NumRows(),
		"dims":           c.data.Dims(),
		"partitions":     c.layout.NumPartitions(),
		"workers":        numWorkers,
		"clients":        numClients,
		"hist_queries":   histQueries,
		"delta":          c.delta,
		"hot":            cfg.spec.hot,
		"open_rate_qps":  cfg.spec.openRate,
		"loops":          "closed, then open",
		"master_config":  "dist.DefaultConfig()",
		"setups_per_run": cfg.setups,
	}

	// Inputs and the oracle, before any timed window. The fresh-stream
	// oracle covers one statement per block for 25k queries per second of
	// run; statements past that are answered but not checked.
	checkedBlocks := int(25000*cfg.seconds)/histQueries + 1
	o := newOracle(c.data)
	s := newStream(cfg.spec, o, c.hist, c.delta, cfg.seed, checkedBlocks)
	var all tally
	for i, q := range warm {
		q.want = o.count(q.box)
		all.record(q, dist.QueryResponse{Rows: warmRows[i]}, nil, 0, 0)
	}
	all.lat, all.at = nil, nil
	runtime.GC()

	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		closedD, openD := d*3/4, d/4
		cpu0 := cpuTime()
		closed := closedLoop(c.clients, s, closedD)
		cpu := cpuTime() - cpu0
		open, late := openLoop(c.clients, s, cfg.spec.openRate, openD)
		all.merge(&closed)
		all.merge(&open)
		inf.Samples["closed"] = len(closed.lat)
		inf.Samples["open"] = len(open.lat)
		put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		put("setup_s", median(setups))
		qps, p50, p99 := windowStats(&closed, closedD)
		put("qps", qps)
		put("p50_us", p50)
		put("p99_us", p99)
		if n := len(closed.lat); n > 0 {
			put("cpu_us_per_query", float64(cpu.Nanoseconds())/1e3/float64(n))
		}
		if n := len(closed.lat) + len(open.lat); n > 0 {
			put("scan_bytes_per_query", float64(closed.bytes+open.bytes)/float64(n))
		}
		put("heap_mb", heapMB)
		_, p50, p99 = windowStats(&open, openD)
		inf.Open = map[string]metric{
			"rate":                  {cfg.spec.openRate, "1/s"},
			"p50_us":                {p50, "us"},
			"p99_us":                {p99, "us"},
			"generator_late_p50_us": {quantile(late, 0.5), "us"},
			"generator_late_p99_us": {quantile(late, 0.99), "us"},
		}
	} else {
		if err := runTraced(cfg, c, s, d, times, &all, &res, &inf); err != nil {
			return res, inf, err
		}
	}

	res.Attempted = all.attempted
	res.Failed = all.errs + all.wrong
	res.Correct = all.wrong == 0
	if all.attempted > 0 {
		inf.ErrorRate = float64(res.Failed) / float64(all.attempted)
		inf.OracleShare = float64(all.checked) / float64(all.attempted)
	}
	inf.Samples["checked"] = all.checked
	inf.Samples["shed"] = all.shed
	if all.firstErr != nil {
		inf.FirstError = all.firstErr.Error()
	}
	inf.FirstMismatch = all.mismatch
	return res, inf, nil
}

// cpuTime is the process's user plus system CPU time. Time the host
// steals from the virtual CPUs is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("unknown metric " + name)
}

// runTraced is the --trace 1 run: an untraced closed loop for the cache,
// sharing and shedding counters, an untraced single-client pass as the
// overhead baseline, then the traced single-client pass.
func runTraced(cfg runConfig, c *cluster, s *stream, d time.Duration, times []setupTimes, all *tally, res *result, inf *info) error {
	put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(perLayer, name)} }
	med := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t).Seconds()
		}
		return median(xs)
	}
	put("dataset.gen_s", med(func(t setupTimes) time.Duration { return t.gen }))
	put("core.build_s", med(func(t setupTimes) time.Duration { return t.build }))
	put("blockstore.materialize_s", med(func(t setupTimes) time.Duration { return t.materialize }))
	put("dist.start_s", med(func(t setupTimes) time.Duration { return t.start }))
	put("layout.partitions", float64(c.layout.NumPartitions()))

	m0, w0 := c.masterReg.Snapshot(), c.workerReg.Snapshot()
	closed := closedLoop(c.clients, s, d*4/10)
	m1, w1 := c.masterReg.Snapshot(), c.workerReg.Snapshot()
	all.merge(&closed)
	inf.Samples["closed"] = len(closed.lat)
	delta := func(a, b obs.Snapshot, name string) float64 { return float64(b.Counter(name) - a.Counter(name)) }
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	put("dist.plan_cache_hit_ratio", ratio(delta(m0, m1, dist.MetricPlanCacheHits), delta(m0, m1, dist.MetricPlanCacheMisses)))
	put("dist.result_cache_hit_ratio", ratio(delta(m0, m1, dist.MetricResultCacheHits), delta(m0, m1, dist.MetricResultCacheMisses)))
	if n := delta(m0, m1, dist.MetricQueries); n > 0 {
		put("dist.shared_scans_per_query", delta(w0, w1, dist.MetricWorkerSharedScans)/n)
	} else {
		put("dist.shared_scans_per_query", 0)
	}

	one := c.clients[:1]
	base := closedLoop(one, s, d*2/10)
	all.merge(&base)
	inf.Samples["untraced_single"] = len(base.lat)

	tr, err := newTracer(c)
	if err != nil {
		return err
	}
	defer tr.close()
	traced := tr.run(c.clients[0], s, d*4/10)
	all.merge(&traced)
	inf.Samples["traced"] = len(tr.per)
	if len(tr.per) == 0 {
		return fmt.Errorf("traced pass answered no statement: %v", traced.firstErr)
	}
	put("dist.queries_shed", delta(m0, c.masterReg.Snapshot(), dist.MetricQueriesShed))

	col := func(f func(layerTimes) time.Duration) []time.Duration {
		out := make([]time.Duration, len(tr.per))
		for i, lt := range tr.per {
			out[i] = f(lt)
		}
		return out
	}
	// A layer's _us value is its mean time over the median band: the
	// statements whose client time ranks between the 45th and the 55th
	// percentile. Per statement the layers and residuals add up to the
	// client time, so over the band they add up to a client time within a
	// few percent of p50, which medians of the single layers would not.
	// A layer's _p99_us value is the p99 of its own times.
	band := append([]layerTimes(nil), tr.per...)
	sort.Slice(band, func(i, j int) bool { return band[i].client < band[j].client })
	band = band[len(band)*45/100 : len(band)*55/100+1]
	layer := func(name string, f func(layerTimes) time.Duration) float64 {
		var sum time.Duration
		for _, lt := range band {
			sum += f(lt)
		}
		mean := float64(sum.Nanoseconds()) / float64(len(band)) / 1e3
		put(name+"_us", mean)
		put(name+"_p99_us", quantile(col(f), 0.99))
		return mean
	}
	sum := layer("sqlrew.rewrite", func(l layerTimes) time.Duration { return l.rewrite })
	sum += layer("router.route", func(l layerTimes) time.Duration { return l.route })
	sum += layer("colstore.kernel", func(l layerTimes) time.Duration { return l.kernel })
	sum += layer("serve.codec", func(l layerTimes) time.Duration { return l.codec })
	sum += layer("dist.unattributed", func(l layerTimes) time.Duration { return l.unattributed })
	sum += layer("dist.client_wire", func(l layerTimes) time.Duration { return l.clientWire })
	layer("dist.master_query", func(l layerTimes) time.Duration { return l.master })
	var calls []time.Duration
	for _, lt := range tr.per {
		if lt.workerCalls > 0 {
			calls = append(calls, lt.workerCall)
		}
	}
	put("dist.worker_call_p50_us", quantile(calls, 0.5))
	put("dist.worker_call_p99_us", quantile(calls, 0.99))
	fan := 0.0
	if tr.fanoutN > 0 {
		fan = tr.fanoutSum / float64(tr.fanoutN)
	}
	put("dist.fanout_width", fan)

	perRouted := func(x int64) float64 {
		if tr.routedStmts == 0 {
			return 0
		}
		return float64(x) / float64(tr.routedStmts)
	}
	put("sqlrew.ranges_per_query", perRouted(tr.ranges))
	put("router.partitions_per_query", perRouted(tr.parts))
	put("router.modeled_bytes_per_query", perRouted(tr.modeled))
	measured := 0.0
	if tr.modeled > 0 {
		// Both sums cover the same statements: those whose layers ran.
		measured = float64(tr.scan.BytesRead) / float64(tr.modeled)
	}
	put("router.measured_over_modeled", measured)
	put("colstore.bytes_read_per_query", perRouted(tr.scan.BytesRead))
	put("colstore.bytes_skipped_per_query", perRouted(tr.scan.BytesSkipped))
	skip, match := 0.0, 0.0
	if g := tr.scan.GroupsRead + tr.scan.GroupsSkipped; g > 0 {
		skip = float64(tr.scan.GroupsSkipped) / float64(g)
	}
	if tr.scan.GroupsRead > 0 {
		// Rows in the groups read, counting every group as full: the last
		// group of a partition may hold fewer rows.
		match = float64(tr.scan.Matched) / float64(tr.scan.GroupsRead*groupRows)
	}
	put("colstore.group_skip_ratio", skip)
	put("colstore.match_ratio", match)

	client := quantile(col(func(l layerTimes) time.Duration { return l.client }), 0.5)
	untraced := quantile(base.lat, 0.5)
	put("trace.client_p50_us", client)
	put("trace.layer_sum_p50_us", sum)
	put("trace.untraced_p50_us", untraced)
	over := 0.0
	if untraced > 0 {
		over = (client - untraced) / untraced * 100
	}
	put("trace.overhead_pct", over)
	put("trace.queries", float64(len(tr.per)))

	if cfg.out != "" {
		path := filepath.Join(cfg.out, "spans-"+cfg.spec.name+".jsonl")
		if err := tr.rec.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		inf.SpansFile = path
	}
	return nil
}
