package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesAbove(t *testing.T) {
	var xs []float64
	for i := 30; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	got := tail(xs)
	want := Tail{Value: 20, Percentile: 100 * 20.0 / 30, Samples: 30}
	if got != want {
		t.Fatalf("tail(1..30) = %+v, want %+v", got, want)
	}
	above := 0
	for _, x := range xs {
		if x > got.Value {
			above++
		}
	}
	if above != tailBeyond {
		t.Fatalf("%d samples above the tail value, want %d", above, tailBeyond)
	}
}

func TestTailNeedsMoreThanTenSamples(t *testing.T) {
	got := tail([]float64{5, 1, 3, 2, 4, 6, 7, 8, 9, 10})
	if got != (Tail{Samples: 10}) {
		t.Fatalf("tail of 10 samples = %+v, want only the count", got)
	}
	if got := tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); got.Value != 1 || got.Samples != 11 {
		t.Fatalf("tail of 11 samples = %+v, want the lowest sample and count 11", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "sweep", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "build", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "run", Start: 20 * ms, End: 50 * ms},      // overlaps build
		{ID: 4, Parent: 1, Name: "results", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 3, Name: "http", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Name: "other", Start: 0, End: 7 * ms},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"sweep":   100*ms - 40*ms - 10*ms, // [10,50) and [90,100) covered
		"build":   20 * ms,
		"run":     30*ms - 10*ms,
		"results": 30 * ms,
		"http":    10 * ms,
		"other":   7 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestJobSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	for name, mix := range serviceMixes {
		cycles := func(seed uint64) [][]jobOp {
			g := &jobGen{mix: mix, seed: seed}
			var out [][]jobOp
			for c := 0; c < 4; c++ {
				out = append(out, g.next())
			}
			return out
		}
		a, b := cycles(7), cycles(7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two generators with seed 7 made different job sequences", name)
		}
		if reflect.DeepEqual(a, cycles(8)) {
			t.Fatalf("%s: seeds 7 and 8 made the same job sequence", name)
		}
		seen := map[string]bool{}
		for _, cycle := range a {
			if !reflect.DeepEqual(kinds(cycle), kinds(a[0])) {
				t.Fatalf("%s: cycles send different kinds: %v and %v", name, kinds(cycle), kinds(a[0]))
			}
			for _, op := range cycle {
				h := op.Spec.Hash()
				switch op.Kind {
				case kindCached:
					if !seen[h] {
						t.Fatalf("%s: cached job %+v resubmits a spec not submitted before", name, op.Spec)
					}
				default:
					if seen[h] {
						t.Fatalf("%s: %s job %+v repeats an earlier spec", name, op.Kind, op.Spec)
					}
					seen[h] = true
				}
			}
		}
	}
}

func kinds(ops []jobOp) []string {
	var out []string
	for _, op := range ops {
		out = append(out, op.Kind)
	}
	return out
}

func TestServiceMixesFollowTheirCaller(t *testing.T) {
	g := &jobGen{mix: serviceMixes["service"], seed: 1}
	if got, want := kinds(g.next()), []string{kindFresh, kindFresh, kindCached, kindCached}; !reflect.DeepEqual(got, want) {
		t.Fatalf("service cycle sends %v, want %v", got, want)
	}
	g = &jobGen{mix: serviceMixes["lease"], seed: 1}
	if got, want := kinds(g.next()), []string{kindSharded, kindCached}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lease cycle sends %v, want %v", got, want)
	}
}

func TestSimRoundsAreAPureFunctionOfTheSeed(t *testing.T) {
	for name, w := range simWorkloads {
		if !reflect.DeepEqual(w.round(5), w.round(5)) {
			t.Fatalf("%s: two rounds with seed 5 differ", name)
		}
		if reflect.DeepEqual(w.round(5), w.round(6)) {
			t.Fatalf("%s: the rounds at seeds 5 and 6 are the same", name)
		}
	}
}

// TestPerRefSecondScalesWithTheKernel checks the unit: a round whose CPU
// time equals one reference-second does one unit of work per
// reference-second, and a host twice as slow for both leaves it unchanged.
func TestPerRefSecondScalesWithTheKernel(t *testing.T) {
	ref := []float64{4, 6, 5, 100} // median 5.5
	oneRefSecond := refRunsPerRefSecond * 5.5
	if got := perRefSecond(3, oneRefSecond, ref); got != 3 {
		t.Fatalf("perRefSecond = %v, want 3", got)
	}
	slow := []float64{8, 12, 10, 200}
	if got := perRefSecond(3, 2*oneRefSecond, slow); got != 3 {
		t.Fatalf("perRefSecond on a host twice as slow = %v, want 3", got)
	}
	if got := perRefSecond(3, 0, ref); got != 0 {
		t.Fatalf("perRefSecond with no CPU time = %v, want 0", got)
	}
}

// TestRefKernelIsFixedWork requires the same checksum from every run, so
// every sample times the same work.
func TestRefKernelIsFixedWork(t *testing.T) {
	for i := range refTable {
		refTable[i] = 0
	}
	a := refKernel()
	for i := range refTable {
		refTable[i] = 0
	}
	if b := refKernel(); a != b {
		t.Fatalf("two kernel runs from the same table gave %d and %d", a, b)
	}
	if got := refSamples(3); len(got) != 3 || got[0] <= 0 {
		t.Fatalf("refSamples(3) = %v, want three positive times", got)
	}
}

// TestServiceDigestIgnoresHostValues runs one cycle of each service
// workload's closed loop on two services, which get different data
// directories, ports and job IDs, and requires the same digest.
func TestServiceDigestIgnoresHostValues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs in-process services")
	}
	for name, mix := range serviceMixes {
		t.Run(name, func(t *testing.T) { checkServiceDigest(t, mix) })
	}
}

func checkServiceDigest(t *testing.T, mix serviceMix) {
	run := func(workdir string) (digest []jobDigest, url, dir string) {
		s, err := startService(workdir, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := runServicePass(s, mix, 3, 1, 0, nil)
		if errs := s.stop(); len(errs) > 0 {
			t.Fatalf("shutdown: %v", errs)
		}
		if len(p.failures) > 0 {
			t.Fatalf("jobs failed: %v", p.failures)
		}
		return digestJobs(p.jobs), s.url, s.dir
	}
	d1, url1, dir1 := run(t.TempDir())
	d2, url2, dir2 := run(t.TempDir())
	if url1 == url2 || dir1 == dir2 {
		t.Fatalf("the two services shared a port or a data directory: %s %s, %s %s", url1, url2, dir1, dir2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("digests differ:\n%v\n%v", d1, d2)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists and
// workloads and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, which the program does not have", w.Name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Fatalf("metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
