// Command clusterbench is the repository's end-to-end benchmark: it starts
// a real in-process cluster (one dist.Master, two dist.Workers on loopback
// TCP), drives it with a seeded query stream through dist.MuxClient, checks
// the answers against dataset.CountInBox, and prints every metric by name
// with its unit. Workloads and the metrics they load are described in
// workloads.go.
//
//	clusterbench --workload tpch-qf --seed 1 --seconds 10 --trace 0
//	clusterbench compare --parent DIR --change DIR [--bench BENCHMARK.json]
//
// The last line of a run's output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it records the host, the
// configuration and the sample counts. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 a separate traced pass times each layer's
// public calls from outside and reports per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("clusterbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed of the query stream")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := fs.String("out", "", "directory for the traced pass's spans (none when empty)")
	fs.Parse(os.Args[1:])

	spec, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "clusterbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "clusterbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	res, inf, err := run(runConfig{spec: spec, seed: *seed, seconds: *seconds, trace: *traced == 1,
		rows: tableRows, setups: setupsPerRun, out: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(inf); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
