package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// result adapts an experiment's structured data to the registry's Result
// interface: Render produces the paper's text rendering, Metrics the
// headline numbers (deterministic order), and JSON marshalling exposes the
// raw data for trend tracking.
type result[T any] struct {
	data    T
	render  func(T) string
	metrics func(T) []scenario.Metric
}

func (r result[T]) Render() string { return r.render(r.data) }

func (r result[T]) Metrics() []scenario.Metric {
	if r.metrics == nil {
		return nil
	}
	return r.metrics(r.data)
}

func (r result[T]) MarshalJSON() ([]byte, error) { return json.Marshal(r.data) }

// wrap builds a registry Run function from an experiment harness and its
// renderer/metrics.
func wrap[T any](run func(Config) (T, error), render func(T) string, metrics func(T) []scenario.Metric) func(Config) (scenario.Result, error) {
	return func(cfg Config) (scenario.Result, error) {
		data, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return result[T]{data: data, render: render, metrics: metrics}, nil
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// init registers every table and figure of the evaluation, in the paper's
// presentation order. cmd/tables, the top-level benchmarks and the
// determinism tests all enumerate this registry instead of keeping their
// own step lists.
func init() {
	scenario.Register(scenario.Experiment{
		Name: "table1",
		Desc: "Table 1: min accesses and time to first flip for the three attacks",
		Run: wrap(Table1, RenderTable1, func(rows []Table1Row) []scenario.Metric {
			return []scenario.Metric{
				{Name: "singleK", Value: float64(rows[0].MinAccesses) / 1000},
				{Name: "doubleK", Value: float64(rows[1].MinAccesses) / 1000},
				{Name: "freeK", Value: float64(rows[2].MinAccesses) / 1000},
				{Name: "double-ms", Value: ms(rows[1].TimeToFlip)},
				{Name: "free-ms", Value: ms(rows[2].TimeToFlip)},
			}
		}),
		Reps: func(Config) int { return len(scenario.AttackKinds()) },
	})
	scenario.Register(scenario.Experiment{
		Name: "table1-sweep",
		Desc: "Table 1 re-run over seed-sharded replicates (min/median per technique)",
		Run: wrap(Table1Sweep, RenderTable1Sweep, func(rows []Table1SweepRow) []scenario.Metric {
			return []scenario.Metric{
				{Name: "double-med-ms", Value: ms(rows[1].TimeToFlipMedian)},
				{Name: "double-med-K", Value: float64(rows[1].MinAccessesMed) / 1000},
				{Name: "flips", Value: float64(rows[0].Flips + rows[1].Flips + rows[2].Flips)},
			}
		}),
		Reps: table1SweepSeeds,
	})
	scenario.Register(scenario.Experiment{
		Name: "figure1",
		Desc: "Figure 1: CLFLUSH vs CLFLUSH-free access-pattern properties",
		Run: wrap(Figure1, RenderFigure1, func(r Figure1Result) []scenario.Metric {
			return []scenario.Metric{
				{Name: "loads/iter", Value: float64(r.FreeSeqLen)},
				{Name: "misses/iter", Value: float64(r.FreeMissesPerIter)},
			}
		}),
	})
	scenario.Register(scenario.Experiment{
		Name: "section21",
		Desc: "Section 2.1: double-refresh-rate mitigation bypass",
		Run: wrap(Section21, RenderSection21, func(r Section21Result) []scenario.Metric {
			return []scenario.Metric{{Name: "ms-to-flip", Value: ms(r.TimeToFlip)}}
		}),
	})
	scenario.Register(scenario.Experiment{
		Name: "section22",
		Desc: "Section 2.2: LLC replacement-policy inference ranking",
		Run: wrap(Section22, RenderSection22, func(scores []attack.PolicyScore) []scenario.Metric {
			return []scenario.Metric{
				{Name: "best-agreement", Value: scores[0].Match},
				{Name: "runnerup-agreement", Value: scores[1].Match},
			}
		}),
	})
	scenario.Register(scenario.Experiment{
		Name: "table3",
		Desc: "Table 3: detection latency, refresh rate and flips under attack",
		Run: wrap(Table3, RenderTable3, func(rows []Table3Row) []scenario.Metric {
			return []scenario.Metric{
				{Name: "clflush-heavy-ms", Value: ms(rows[0].AvgTimeToDetect)},
				{Name: "free-light-ms", Value: ms(rows[3].AvgTimeToDetect)},
				{Name: "clflush-heavy-refr/64ms", Value: rows[0].RefreshesPer64ms},
			}
		}),
		Reps: func(cfg Config) int {
			trials := 4
			if cfg.Quick {
				trials = 2
			}
			return 4 * trials // four (attack, load) points
		},
	})
	scenario.Register(scenario.Experiment{
		Name: "table4",
		Desc: "Table 4: false-positive refresh rates per SPEC profile",
		Run: wrap(Table4, RenderTable4, func(rows []Table4Row) []scenario.Metric {
			var worst, sum float64
			for _, r := range rows {
				sum += r.RefreshesPerSec
				if r.RefreshesPerSec > worst {
					worst = r.RefreshesPerSec
				}
			}
			return []scenario.Metric{
				{Name: "worst-refr/s", Value: worst},
				{Name: "mean-refr/s", Value: sum / float64(len(rows))},
			}
		}),
		Reps: func(Config) int { return len(workload.SPEC2006()) },
	})
	scenario.Register(scenario.Experiment{
		Name: "figure3",
		Desc: "Figure 3: normalized execution time under ANVIL and 2x refresh",
		Run: wrap(Figure3, RenderFigure3, func(rows []Figure3Row) []scenario.Metric {
			avg, peak := Figure3Summary(rows)
			return []scenario.Metric{
				{Name: "anvil-mean-%", Value: (avg - 1) * 100},
				{Name: "anvil-peak-%", Value: (peak - 1) * 100},
			}
		}),
		Reps: func(Config) int { return len(workload.SPEC2006()) },
	})
	scenario.Register(scenario.Experiment{
		Name: "figure4",
		Desc: "Figure 4: overhead sensitivity to the detector configuration",
		Run: wrap(Figure4, RenderFigure4, func(rows []Figure4Row) []scenario.Metric {
			var base, light, heavy float64
			for _, r := range rows {
				base += r.Baseline - 1
				light += r.Light - 1
				heavy += r.Heavy - 1
			}
			n := float64(len(rows))
			return []scenario.Metric{
				{Name: "baseline-mean-%", Value: 100 * base / n},
				{Name: "light-mean-%", Value: 100 * light / n},
				{Name: "heavy-mean-%", Value: 100 * heavy / n},
			}
		}),
		Reps: func(Config) int { return len(figure4Benchmarks()) },
	})
	scenario.Register(scenario.Experiment{
		Name: "table5",
		Desc: "Table 5: false-positive rates under ANVIL-light and ANVIL-heavy",
		Run: wrap(Table5, RenderTable5, func(rows []Table5Row) []scenario.Metric {
			var light, heavy float64
			for _, r := range rows {
				light += r.Light
				heavy += r.Heavy
			}
			n := float64(len(rows))
			return []scenario.Metric{
				{Name: "light-mean-refr/s", Value: light / n},
				{Name: "heavy-mean-refr/s", Value: heavy / n},
			}
		}),
		Reps: func(Config) int { return 2 * len(figure4Benchmarks()) }, // light + heavy sweeps
	})
	scenario.Register(scenario.Experiment{
		Name: "section45",
		Desc: "Section 4.5: robustness to future attacks on weaker DRAM",
		Run: wrap(Section45, RenderSection45, func(rows []Section45Row) []scenario.Metric {
			return []scenario.Metric{
				{Name: "fast-detections", Value: float64(rows[0].Detections)},
				{Name: "slow-detections", Value: float64(rows[1].Detections)},
			}
		}),
		Reps: func(Config) int { return len(section45Points()) },
	})
	scenario.Register(scenario.Experiment{
		Name: "defenses",
		Desc: "Extension: every mitigation vs the double-sided CLFLUSH attack",
		Run: wrap(Defenses, RenderDefenses, func(rows []DefenseRow) []scenario.Metric {
			return []scenario.Metric{{Name: "unprotected-flips", Value: float64(rows[0].BitFlips)}}
		}),
		Reps: func(Config) int { return defenseEntryCount },
	})
	scenario.Register(scenario.Experiment{
		Name: "degraded-sampling",
		Desc: "Robustness: ANVIL-heavy flip prevention vs PMU sample-drop rate",
		Run: wrap(DegradedSampling, RenderDegradedSampling, func(rows []DegradedSamplingRow) []scenario.Metric {
			out := make([]scenario.Metric, len(rows))
			for i, r := range rows {
				out[i] = scenario.Metric{
					Name:  fmt.Sprintf("prevention@%.0f%%", r.DropRate*100),
					Value: r.Prevention,
				}
			}
			return out
		}),
		Reps: func(cfg Config) int { return degradedSamplingReps(cfg) * (1 + len(dropRates)) },
	})
	scenario.Register(scenario.Experiment{
		Name: "fault-matrix",
		Desc: "Robustness: the standard attack vs ANVIL-baseline on degraded-hardware profiles",
		Run: wrap(FaultMatrix, RenderFaultMatrix, func(rows []FaultMatrixRow) []scenario.Metric {
			var flips, errs float64
			for _, r := range rows {
				flips += float64(r.Flips)
				if r.Err != "" {
					errs++
				}
			}
			return []scenario.Metric{
				{Name: "total-flips", Value: flips},
				{Name: "failed-profiles", Value: errs},
			}
		}),
		Reps: func(Config) int { return len(faultProfiles()) },
		// One top-level sweep, one replicate per profile: safe to shard
		// across worker processes.
		Shardable: true,
	})
}
