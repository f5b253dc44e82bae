package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Section45Row is one robustness scenario of §4.5: a future, weaker DRAM
// (flips at half the disturbance) attacked fast or slow, against an ANVIL
// configuration.
type Section45Row struct {
	Scenario   string `json:"scenario"`
	Config     string `json:"config"`
	Detections int    `json:"detections"`
	BitFlips   int    `json:"bit_flips"`
}

// section45Point is one §4.5 scenario: an attack pace against a detector.
type section45Point struct {
	name    string
	delay   sim.Cycles
	defense scenario.DefenseKind
	pname   string
}

// section45Points lists §4.5's scenarios: the two retuned configurations
// that stop their attack, then ANVIL-baseline failing against both attacks,
// which is why the retuned configurations exist. The slow attack's delay of
// ~1200 cycles per iteration spreads its ~110K iterations across a full
// 64ms refresh period, holding the miss rate under baseline's 20K per 6ms.
func section45Points() []section45Point {
	const fast, slow = "fast attack (110K accesses in ~7ms)", "slow attack (110K accesses over 64ms)"
	return []section45Point{
		{fast, 0, scenario.ANVILHeavy, "ANVIL-heavy"},
		{slow, 1200, scenario.ANVILLight, "ANVIL-light"},
		{fast, 0, scenario.ANVILBaseline, "ANVIL-baseline"},
		{slow, 1200, scenario.ANVILBaseline, "ANVIL-baseline"},
	}
}

// Section45 evaluates ANVIL-heavy against a flat-out attack, ANVIL-light
// against an attack spread across the whole refresh period, and
// ANVIL-baseline against both, all on DRAM that flips at 110K double-sided
// accesses (200K units).
func Section45(cfg Config) ([]Section45Row, error) {
	dur := cfg.ScaleDur(512 * time.Millisecond)
	points := section45Points()
	return scenario.RunReplicates(cfg, len(points), func(rep int) (Section45Row, error) {
		p := points[rep]
		in, err := scenario.Build(scenario.Spec{
			Cores:        1,
			Seed:         cfg.Seed,
			DisturbScale: 0.5,
			Attack: &scenario.Attack{
				Kind:       scenario.DoubleSidedFlush,
				WeakUnits:  victimThreshold / 2,
				ExtraDelay: p.delay,
			},
			Defense:   p.defense,
			StepBatch: cfg.StepBatch,
		})
		if err != nil {
			return Section45Row{}, err
		}
		if err := in.RunFor(dur); err != nil {
			return Section45Row{}, err
		}
		return Section45Row{
			Scenario:   p.name,
			Config:     p.pname,
			Detections: len(in.Detector.Stats().Detections),
			BitFlips:   in.Machine.Mem.DRAM.FlipCount(),
		}, nil
	})
}

// RenderSection45 formats the robustness results.
func RenderSection45(rows []Section45Row) string {
	t := report.New("Section 4.5: Robustness to Future Attacks (DRAM flipping at 110K accesses)",
		"Scenario", "Detector", "Detections", "Bit Flips")
	for _, r := range rows {
		t.AddStrings(r.Scenario, r.Config, fmt.Sprintf("%d", r.Detections), fmt.Sprintf("%d", r.BitFlips))
	}
	return t.String()
}

// DefenseRow compares one mitigation against the CLFLUSH attack.
type DefenseRow struct {
	Defense    string `json:"defense"`
	BitFlips   int    `json:"bit_flips"`
	Refreshes  uint64 `json:"refreshes"`
	Deployable string `json:"deployable"` // "existing systems" vs "new hardware"
}

// defenseEntryCount is the mitigation count of Defenses, kept next to its
// entry list for registry replicate estimates.
const defenseEntryCount = 8

// Defenses is the extension comparison (§5 landscape): every mitigation in
// the repository against the double-sided CLFLUSH attack on the standard
// module, one independent replicate per defense.
func Defenses(cfg Config) ([]DefenseRow, error) {
	dur := cfg.ScaleDur(256 * time.Millisecond)
	type entry struct {
		name         string
		refreshScale int
		defense      scenario.DefenseKind
		deployable   string
	}
	entries := []entry{
		{"none (64ms refresh)", 1, scenario.NoDefense, "-"},
		{"2x refresh (32ms)", 2, scenario.NoDefense, "existing systems"},
		{"ANVIL-baseline", 1, scenario.ANVILBaseline, "existing systems"},
		{"PARA p=0.001", 1, scenario.PARA, "new hardware"},
		{"TRR MAC=50K/16ms", 1, scenario.TRR, "new hardware"},
		{"pTRR 1%/64-entry", 1, scenario.PTRR, "shipping (Xeon)"},
		{"CRA counters 100K", 1, scenario.CRA, "new hardware"},
		{"ARMOR hot-row buffer", 1, scenario.ARMOR, "new hardware"},
	}
	if len(entries) != defenseEntryCount {
		return nil, fmt.Errorf("experiments: defenseEntryCount (%d) out of sync with the entry list (%d)", defenseEntryCount, len(entries))
	}
	return scenario.RunReplicates(cfg, len(entries), func(rep int) (DefenseRow, error) {
		e := entries[rep]
		in, err := scenario.Build(scenario.Spec{
			Cores:        1,
			Seed:         cfg.Seed,
			RefreshScale: e.refreshScale,
			Attack:       &scenario.Attack{Kind: scenario.DoubleSidedFlush},
			Defense:      e.defense,
			StepBatch:    cfg.StepBatch,
		})
		if err != nil {
			return DefenseRow{}, err
		}
		if err := in.RunFor(dur); err != nil {
			return DefenseRow{}, err
		}
		row := DefenseRow{Defense: e.name, BitFlips: in.Machine.Mem.DRAM.FlipCount(), Deployable: e.deployable}
		if in.HW != nil {
			row.Refreshes = in.HW.Refreshes()
		}
		if in.Detector != nil {
			row.Refreshes = in.Detector.Stats().Refreshes
		}
		return row, nil
	})
}

// RenderDefenses formats the comparison.
func RenderDefenses(rows []DefenseRow) string {
	t := report.New("Defense Comparison: double-sided CLFLUSH attack, weakest row 400K units",
		"Defense", "Bit Flips", "Victim Refreshes", "Deployability")
	for _, r := range rows {
		t.AddStrings(r.Defense, fmt.Sprintf("%d", r.BitFlips), fmt.Sprintf("%d", r.Refreshes), r.Deployable)
	}
	return t.String()
}
