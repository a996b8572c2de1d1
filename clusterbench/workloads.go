package main

// Workloads. Each one builds a PAW layout (core.Build) from its own
// historical workload QH, materialises it (blockstore.Materialize), starts
// one dist.Master and two dist.Workers on loopback TCP with
// dist.DefaultConfig(), and drives the master through dist.MuxClient. The
// dataset and QH are fixed per workload (they stand for the table and the
// history the layout was provisioned for); --seed draws the query stream.
// No setting turns a cache on or off: whether the plan cache, the result
// cache and worker scan sharing help is decided by the stream alone.
//
//	tpch-qf   TPC-H-like, 1M rows, 4-D, uniform QH (γ=10%), δ=1%. Fresh,
//	          distinct workload.Future queries δ-similar to QH. Per-query
//	          overhead dominates: sqlrew, router, serve frames, dist scatter
//	          and the wire. The colstore kernel does little and every cache
//	          misses, so front-end and wire gains show here and kernel
//	          gains should not.
//	osm-wide  OSM-like, 1M rows, 2-D, skewed QH with wide ranges (γ=30%),
//	          δ=1%. Fresh distinct QF. Each query reads about 160 KB and
//	          the colstore kernel is a quarter of a median query, against
//	          a fiftieth on tpch-qf; gains in the kernel, encodings, zone
//	          maps and layout quality (Eq. 1 bytes) show here, gains in
//	          rewrite or routing barely do.
//	tpch-hot  Same data and layout as tpch-qf. Statements are drawn
//	          Zipf-skewed (s=1.1) from a fixed pool of 2000 QF statements,
//	          so the plan cache and the 256-entry result cache hit on most
//	          but not all queries (about three in four). The only workload
//	          where the caches can hit, and the one where worker scan
//	          sharing would show (with two clients it stays near zero:
//	          the result cache absorbs repeats first); since the layout
//	          equals tpch-qf's, any difference between the two comes from
//	          repetition alone.
//
// Every workload runs a closed loop with two clients (each waits for its
// reply) for three quarters of the run, then an open loop at a fixed rate
// for the rest. The rate is about a third of the closed-loop rate measured
// when the benchmark was defined: at half, a few milliseconds of host stall
// queue requests faster than the cluster drains them. Open-loop latency is
// timed from each request's due time and printed with how late the
// generator ran, but it is not one of the gated end-to-end metrics: on a
// virtual machine whose CPUs are shared with other tenants it follows the
// host's scheduling latency (waking an idle virtual CPU) more than the
// program, and it spreads by tens of percent between runs of one build.
//
// End-to-end metrics come from the untraced closed loop, as medians over
// one-second windows (see windowStats), plus cpu_us_per_query, the
// process's CPU time per answered query, which host CPU steal does not
// inflate.
//
// Which end-to-end metric each per-layer metric should move, and where:
//
//	per-layer metric                    should move            mainly on
//	dataset.gen_s, core.build_s,
//	blockstore.materialize_s,
//	dist.start_s                        setup_s                all
//	layout.partitions                   scan_bytes_per_query   all
//	sqlrew.rewrite_us,
//	sqlrew.ranges_per_query             p50_us, qps            tpch-qf (not tpch-hot)
//	router.route_us,
//	router.partitions_per_query         p50_us                 tpch-qf
//	router.modeled_bytes_per_query,
//	router.measured_over_modeled        scan_bytes_per_query   osm-wide
//	colstore.kernel_us                  p50_us, qps            osm-wide (small on tpch-qf)
//	colstore.bytes_read_per_query,
//	colstore.bytes_skipped_per_query,
//	colstore.group_skip_ratio,
//	colstore.match_ratio                scan_bytes_per_query,  osm-wide
//	                                    p50_us
//	serve.codec_us                      p50_us                 tpch-qf
//	dist.master_query_us                p50_us                 all
//	dist.client_wire_us                 p50_us                 tpch-qf, tpch-hot
//	dist.unattributed_us                p50_us, p99_us         tpch-qf
//	dist.worker_call_p50_us/_p99_us,
//	dist.fanout_width                   p99_us                 osm-wide, tpch-qf
//	dist.plan_cache_hit_ratio,
//	dist.result_cache_hit_ratio,
//	dist.shared_scans_per_query         qps, p50_us            tpch-hot (≈0 on tpch-qf)
//	dist.queries_shed                   failed queries         all
type workloadSpec struct {
	name string
	// data is "tpch" (4-D, uniform QH, γ=10%) or "osm" (2-D, skewed QH,
	// γ=30%).
	data string
	// hot draws statements Zipf-skewed from a fixed pool instead of
	// generating a fresh statement per query.
	hot bool
	// openRate is the open-loop arrival rate in queries per second. It is a
	// fixed input of the workload, not derived from a measured capacity;
	// BENCHMARK.json states the same number in the workload's why.
	openRate float64
}

var workloads = []workloadSpec{
	{name: "tpch-qf", data: "tpch", openRate: 6000},
	{name: "osm-wide", data: "osm", openRate: 3000},
	{name: "tpch-hot", data: "tpch", hot: true, openRate: 16000},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Sizing shared by the workloads.
const (
	// tableRows is the row count of every workload's table.
	tableRows = 1_000_000
	// setupsPerRun is how often a run sets the cluster up; setup_s is the
	// median.
	setupsPerRun = 3
	numWorkers   = 2
	numClients   = 2
	// histQueries is |QH|, the historical workload the layout is built for.
	histQueries = 100
	// deltaFrac is δ as a fraction of the (normalized) domain length.
	deltaFrac = 0.01
	// hotPool is the number of distinct statements tpch-hot draws from, and
	// hotZipfS the Zipf exponent of the draw.
	hotPool  = 2000
	hotZipfS = 1.1
	// dataSeed and histSeed fix the table and QH of every workload.
	dataSeed = 20220501
	histSeed = 7
)
