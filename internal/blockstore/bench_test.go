package blockstore

import (
	"testing"

	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/workload"
)

// BenchmarkMaterialize times Materialize on the benchmark's osm-wide table:
// 1M skewed 2-D OSM-like rows under a PAW layout of about 600 partitions.
func BenchmarkMaterialize(b *testing.B) {
	data := dataset.OSMLike(1_000_000, 12, 20220501).Normalize()
	domain := data.Domain()
	p := workload.Defaults(100, 7)
	p.MaxRangeFrac = 0.30
	hist := workload.Skewed(domain, p)
	l := core.Build(data, data.Sample(100_000, 20220502), domain, hist,
		core.Params{MinRows: 100_000 / 600, Delta: 0.01 * (domain.Hi[0] - domain.Lo[0])})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Materialize(l, data, Config{})
	}
}
