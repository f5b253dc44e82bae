package repro_test

// The root benchmark measures the parallel seed-sharded runner. cmd/tables
// regenerates the evaluation; perfbench/ times it end to end.

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// BenchmarkTable1Sweep runs the 16-seed Table 1 sweep serially and with an
// 8-worker pool, reporting both wall-clock times and the speedup. On a
// machine with >=8 cores the pool delivers near-linear scaling because each
// replicate owns its machine; on fewer cores the speedup degrades towards
// 1x but the merged results stay byte-identical (see scenario.RunSweep).
// -short runs the quick sweep.
func BenchmarkTable1Sweep(b *testing.B) {
	sweep := func(workers int) time.Duration {
		c := scenario.Config{Quick: testing.Short(), Parallel: workers}
		start := time.Now()
		if _, err := experiments.Table1Sweep(c); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		serial := sweep(1)
		parallel := sweep(8)
		b.ReportMetric(serial.Seconds(), "serial-s")
		b.ReportMetric(parallel.Seconds(), "parallel8-s")
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-8w")
	}
}
