package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runFile is one saved run: the stdout of an untraced run.
type runFile struct {
	info info
	res  result
}

// compareMain compares saved parent and change runs of the same seeds:
//
//	clusterbench compare --parent DIR --change DIR [--bench BENCHMARK.json]
//
// Each directory holds one file per run, the run's standard output. For
// every workload and end-to-end metric it pairs the runs by seed and
// classifies the change:
//
//   - improved: the change is better in at least 9 of 10 pairs and the
//     medians differ by more than the parent's quartile spread;
//   - unresolved: the parent's quartile spread, as a share of its median, is
//     wider than the metric's bound and not every change run beats every
//     parent run;
//   - regressed: the change's median is worse than the parent's by more than
//     the bound;
//   - unchanged: otherwise.
//
// A workload's row takes the worst class of its metrics (regressed, then
// unresolved, then improved), and is regressed when the change has more
// failed queries than the parent.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent's saved runs")
	changeDir := fs.String("change", "", "directory of the change's saved runs")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return fmt.Errorf("need --parent and --change")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	parent, err := loadRuns(*parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(*changeDir)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	for _, name := range names {
		p, c := parent[name], change[name]
		var seeds []int64
		for seed := range p {
			if _, ok := c[seed]; ok {
				seeds = append(seeds, seed)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		failedP, failedC := 0, 0
		var details []string
		verdict := "unchanged"
		for _, m := range bench.EndToEnd {
			var pv, cv []float64
			for _, seed := range seeds {
				a, okA := p[seed].res.Metrics[m.Name]
				b, okB := c[seed].res.Metrics[m.Name]
				if okA && okB {
					pv = append(pv, a.Value)
					cv = append(cv, b.Value)
				}
			}
			if len(pv) == 0 {
				continue
			}
			class, rel := classify(pv, cv, m.Better == "higher", m.Bound)
			verdict = worst(verdict, class)
			details = append(details, fmt.Sprintf("%s %s (%+.1f%%)", m.Name, class, rel*100))
		}
		for _, seed := range seeds {
			failedP += p[seed].res.Failed
			failedC += c[seed].res.Failed
		}
		if failedC > failedP {
			verdict = "regressed"
			details = append(details, fmt.Sprintf("failed queries %d > %d", failedC, failedP))
		}
		fmt.Fprintf(w, "%-10s %-10s pairs=%d  %s\n", name, verdict, len(seeds), strings.Join(details, "; "))
	}
	return nil
}

var classRank = map[string]int{"unchanged": 0, "improved": 1, "unresolved": 2, "regressed": 3}

func worst(a, b string) string {
	if classRank[b] > classRank[a] {
		return b
	}
	return a
}

// classify applies the rules above to paired values (pv[i] and cv[i] share
// a seed). rel is the change of the median, positive when better.
func classify(pv, cv []float64, higher bool, bound float64) (class string, rel float64) {
	better := func(c, p float64) bool {
		if higher {
			return c > p
		}
		return c < p
	}
	mp, mc := median(pv), median(cv)
	if mp != 0 {
		rel = (mp - mc) / mp
		if higher {
			rel = -rel
		}
	}
	wins := 0
	for i := range pv {
		if better(cv[i], pv[i]) {
			wins++
		}
	}
	q := quartiles(pv)
	iqr := q[2] - q[0]
	if wins*10 >= 9*len(pv) && math.Abs(mc-mp) > iqr {
		return "improved", rel
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if mp != 0 && iqr/math.Abs(mp) > bound && !allBetter {
		return "unresolved", rel
	}
	if -rel > bound {
		return "regressed", rel
	}
	return "unchanged", rel
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	if len(s) < 2 {
		for i := range out {
			out[i] = median(s)
		}
		return out
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= len(s) {
			j, delta = len(s)-1, 4
		}
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// loadRuns reads every untraced run in dir, keyed by workload and seed;
// files that are not saved runs are skipped with a note on stderr.
func loadRuns(dir string) (map[string]map[int64]runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]runFile{}
	for _, path := range paths {
		rf, err := readRun(path)
		if err != nil {
			// Directories of saved runs often hold the runs' stderr too.
			fmt.Fprintf(os.Stderr, "clusterbench compare: skipping %s: %v\n", path, err)
			continue
		}
		if rf.info.Trace {
			continue
		}
		if out[rf.info.Workload] == nil {
			out[rf.info.Workload] = map[int64]runFile{}
		}
		out[rf.info.Workload][rf.info.Seed] = rf
	}
	return out, nil
}

// readRun parses a saved run: its last two non-empty lines are the info
// object and the result object.
func readRun(path string) (runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return runFile{}, err
	}
	if len(lines) < 2 {
		return runFile{}, fmt.Errorf("not a saved run: fewer than two lines")
	}
	var rf runFile
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rf.info); err != nil {
		return runFile{}, fmt.Errorf("info line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rf.res); err != nil {
		return runFile{}, fmt.Errorf("result line: %w", err)
	}
	if rf.info.Workload == "" {
		return runFile{}, fmt.Errorf("info line names no workload")
	}
	return rf, nil
}
