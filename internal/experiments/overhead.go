package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Table4Row is one row of Table 4: false-positive refresh rates.
type Table4Row struct {
	Benchmark       string  `json:"benchmark"`
	RefreshesPerSec float64 `json:"refreshes_per_sec"`
	CrossingFrac    float64 `json:"crossing_frac"` // fraction of stage-1 windows crossed (§4.3)
}

// Table4 runs each SPEC profile alone under ANVIL-baseline and reports the
// rate of superfluous selective refreshes (every detection is a false
// positive: no attack is running).
func Table4(cfg Config) ([]Table4Row, error) {
	return falsePositives(cfg, scenario.ANVILBaseline, workload.SPEC2006())
}

// falsePositives measures benign-workload refresh rates under the given
// ANVIL configuration, one independent replicate per profile.
func falsePositives(cfg Config, def scenario.DefenseKind, profs []workload.Profile) ([]Table4Row, error) {
	dur := cfg.ScaleDur(4 * time.Second)
	return scenario.RunReplicates(cfg, len(profs), func(rep int) (Table4Row, error) {
		prof := profs[rep]
		in, err := scenario.Build(scenario.Spec{
			Cores:     1,
			Seed:      cfg.Seed,
			Workloads: []scenario.Workload{{Name: prof.Name}},
			Defense:   def,
			StepBatch: cfg.StepBatch,
		})
		if err != nil {
			return Table4Row{}, err
		}
		if err := in.RunFor(dur); err != nil {
			return Table4Row{}, err
		}
		st := in.Detector.Stats()
		return Table4Row{
			Benchmark:       prof.Name,
			RefreshesPerSec: float64(st.Refreshes) / dur.Seconds(),
			CrossingFrac:    st.CrossingFraction(),
		}, nil
	})
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []Table4Row) string {
	t := report.New("Table 4: Rate of False Positive Refreshes (ANVIL-baseline)",
		"Benchmark", "Refreshes/sec", "Stage-1 crossing")
	for _, r := range rows {
		t.AddStrings(r.Benchmark,
			fmt.Sprintf("%.2f", r.RefreshesPerSec),
			fmt.Sprintf("%.0f%%", 100*r.CrossingFrac))
	}
	return t.String()
}

// Figure3Row is one bar pair of Figure 3: normalized execution time under
// ANVIL and under doubled refresh rate, relative to the unprotected system.
type Figure3Row struct {
	Benchmark     string  `json:"benchmark"`
	ANVIL         float64 `json:"anvil"`
	DoubleRefresh float64 `json:"double_refresh"`
}

// measureRuntime runs the profile for a fixed amount of work and returns
// the completion time in cycles.
func measureRuntime(cfg Config, prof workload.Profile, ops uint64, def scenario.DefenseKind, refreshScale int) (time.Duration, error) {
	in, err := scenario.Build(scenario.Spec{
		Cores:        1,
		Seed:         cfg.Seed,
		RefreshScale: refreshScale,
		Workloads:    []scenario.Workload{{Name: prof.Name, OpLimit: ops}},
		Defense:      def,
		StepBatch:    cfg.StepBatch,
	})
	if err != nil {
		return 0, err
	}
	if err := in.RunToCompletion(); err != nil {
		return 0, err
	}
	return in.Machine.Freq.Duration(in.Machine.Cores[0].Now), nil
}

// Figure3 measures, for every SPEC profile, the fixed-work slowdown of
// (a) running under ANVIL-baseline and (b) doubling the DRAM refresh rate.
// Each profile's three runs form one independent replicate.
func Figure3(cfg Config) ([]Figure3Row, error) {
	profs := workload.SPEC2006()
	return scenario.RunReplicates(cfg, len(profs), func(rep int) (Figure3Row, error) {
		prof := profs[rep]
		ops := cfg.ScaleOps(fixedWorkOps(prof))
		t0, err := measureRuntime(cfg, prof, ops, scenario.NoDefense, 1)
		if err != nil {
			return Figure3Row{}, err
		}
		t1, err := measureRuntime(cfg, prof, ops, scenario.ANVILBaseline, 1)
		if err != nil {
			return Figure3Row{}, err
		}
		t2, err := measureRuntime(cfg, prof, ops, scenario.NoDefense, 2)
		if err != nil {
			return Figure3Row{}, err
		}
		return Figure3Row{
			Benchmark:     prof.Name,
			ANVIL:         float64(t1) / float64(t0),
			DoubleRefresh: float64(t2) / float64(t0),
		}, nil
	})
}

// Figure3Summary returns the average and peak ANVIL overheads (the paper's
// headline numbers: average 1.17%, peak 3.18%).
func Figure3Summary(rows []Figure3Row) (avg, peak float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.ANVIL
		if r.ANVIL > peak {
			peak = r.ANVIL
		}
	}
	return sum / float64(len(rows)), peak
}

// RenderFigure3 formats the figure's series as a table.
func RenderFigure3(rows []Figure3Row) string {
	t := report.New("Figure 3: Normalized Execution Time (1.00 = unprotected, 64ms refresh)",
		"Benchmark", "ANVIL", "Double Refresh")
	for _, r := range rows {
		t.AddStrings(r.Benchmark, fmt.Sprintf("%.4f", r.ANVIL), fmt.Sprintf("%.4f", r.DoubleRefresh))
	}
	avg, peak := Figure3Summary(rows)
	t.AddStrings("mean", fmt.Sprintf("%.4f", avg), "")
	t.AddStrings("peak", fmt.Sprintf("%.4f", peak), "")
	bars := report.NewBars("\nANVIL overhead (bar = normalized execution time, 1.00-1.05)", 1.0, 1.05, 40)
	for _, r := range rows {
		bars.Add(r.Benchmark, r.ANVIL)
	}
	return t.String() + bars.String()
}

// figure4Benchmarks are the five profiles of Figure 4 / Table 5.
func figure4Benchmarks() []workload.Profile {
	var out []workload.Profile
	for _, name := range []string{"bzip2", "gcc", "gobmk", "libquantum", "perlbench"} {
		p, ok := workload.ByName(name)
		if !ok {
			panic("experiments: missing profile " + name) //lint:allow errpanic static profile list; a name missing from the workload table is a programmer error, not a recoverable simulation state
		}
		out = append(out, p)
	}
	return out
}

// Figure4Row is one benchmark's normalized execution time under the three
// ANVIL configurations.
type Figure4Row struct {
	Benchmark string  `json:"benchmark"`
	Baseline  float64 `json:"baseline"`
	Light     float64 `json:"light"`
	Heavy     float64 `json:"heavy"`
}

// Figure4 measures the sensitivity of execution overhead to the detector
// configuration (§4.5), one independent replicate per benchmark.
func Figure4(cfg Config) ([]Figure4Row, error) {
	profs := figure4Benchmarks()
	return scenario.RunReplicates(cfg, len(profs), func(rep int) (Figure4Row, error) {
		prof := profs[rep]
		ops := cfg.ScaleOps(fixedWorkOps(prof))
		t0, err := measureRuntime(cfg, prof, ops, scenario.NoDefense, 1)
		if err != nil {
			return Figure4Row{}, err
		}
		norm := func(def scenario.DefenseKind) (float64, error) {
			t, err := measureRuntime(cfg, prof, ops, def, 1)
			if err != nil {
				return 0, err
			}
			return float64(t) / float64(t0), nil
		}
		row := Figure4Row{Benchmark: prof.Name}
		if row.Baseline, err = norm(scenario.ANVILBaseline); err != nil {
			return Figure4Row{}, err
		}
		if row.Light, err = norm(scenario.ANVILLight); err != nil {
			return Figure4Row{}, err
		}
		if row.Heavy, err = norm(scenario.ANVILHeavy); err != nil {
			return Figure4Row{}, err
		}
		return row, nil
	})
}

// RenderFigure4 formats the figure's series.
func RenderFigure4(rows []Figure4Row) string {
	t := report.New("Figure 4: Execution Overhead Sensitivity to Detector Configuration",
		"Benchmark", "ANVIL-baseline", "ANVIL-light", "ANVIL-heavy")
	for _, r := range rows {
		t.AddStrings(r.Benchmark,
			fmt.Sprintf("%.4f", r.Baseline),
			fmt.Sprintf("%.4f", r.Light),
			fmt.Sprintf("%.4f", r.Heavy))
	}
	bars := report.NewBars("\nANVIL-heavy overhead (1.00-1.05)", 1.0, 1.05, 40)
	for _, r := range rows {
		bars.Add(r.Benchmark, r.Heavy)
	}
	return t.String() + bars.String()
}

// Table5Row is one benchmark's false-positive rates under ANVIL-light and
// ANVIL-heavy.
type Table5Row struct {
	Benchmark string  `json:"benchmark"`
	Light     float64 `json:"light"`
	Heavy     float64 `json:"heavy"`
}

// Table5 measures false-positive refresh rates for the light and heavy
// configurations over the Figure 4 benchmarks.
func Table5(cfg Config) ([]Table5Row, error) {
	light, err := falsePositives(cfg, scenario.ANVILLight, figure4Benchmarks())
	if err != nil {
		return nil, err
	}
	heavy, err := falsePositives(cfg, scenario.ANVILHeavy, figure4Benchmarks())
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for i := range light {
		rows = append(rows, Table5Row{
			Benchmark: light[i].Benchmark,
			Light:     light[i].RefreshesPerSec,
			Heavy:     heavy[i].RefreshesPerSec,
		})
	}
	return rows, nil
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []Table5Row) string {
	t := report.New("Table 5: False Positive Refresh Rates, ANVIL-light vs ANVIL-heavy",
		"Benchmark", "Refreshes/sec (light)", "Refreshes/sec (heavy)")
	for _, r := range rows {
		t.AddStrings(r.Benchmark, fmt.Sprintf("%.2f", r.Light), fmt.Sprintf("%.2f", r.Heavy))
	}
	return t.String()
}
