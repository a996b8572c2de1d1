package main

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

type benchJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchJSON(t *testing.T) benchJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON pins BENCHMARK.json to the code: the same workloads,
// each why stating the workload's open-loop rate, and the same metrics with
// the same units.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		spec := workloads[i]
		if w.Name != spec.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, spec.name)
		}
		rate := strconv.FormatFloat(spec.openRate, 'f', -1, 64) + " qps"
		if !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why does not state the open-loop rate %q", w.Name, rate)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	var e2e, layer []struct{ Name, Unit string }
	for _, m := range b.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestSmoke runs every workload at a tiny size, untraced and traced. Every
// named metric must be emitted with its unit, every checked answer must
// match the oracle, and in the traced run the named layers plus the two
// residuals must add up to the client's p50.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			res, inf, err := run(runConfig{spec: spec, seed: 3, seconds: 1, trace: traced, rows: 20000, setups: 2})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d first error %q mismatch %q",
					spec.name, traced, res.Correct, res.Failed, res.Attempted, inf.FirstError, inf.FirstMismatch)
			}
			if inf.Samples["checked"] == 0 {
				t.Errorf("%s trace=%v: the oracle checked no answer", spec.name, traced)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", spec.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", spec.name, traced, m.name, got, m.unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", spec.name, m.name, got.Value)
				}
			}
			if traced {
				sum, client := res.Metrics["trace.layer_sum_p50_us"].Value, res.Metrics["trace.client_p50_us"].Value
				if math.Abs(sum-client) > 0.15*client {
					t.Errorf("%s: layers add up to %.1fus, client p50 is %.1fus", spec.name, sum, client)
				}
			}
		}
	}
}

func TestClassify(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name   string
		cv     []float64
		higher bool
		want   string
	}{
		{"same", base, false, "unchanged"},
		{"faster", scale(0.8), false, "improved"},
		{"slower within bound", scale(1.05), false, "unchanged"},
		{"slower beyond bound", scale(1.3), false, "regressed"},
		{"throughput up", scale(1.3), true, "improved"},
		{"throughput down", scale(0.7), true, "regressed"},
	}
	for _, c := range cases {
		if got, _ := classify(base, c.cv, c.higher, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got, _ := classify(noisy, scale(1.05), false, 0.1); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}
