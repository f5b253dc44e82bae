package scenario

import (
	"strings"
	"testing"
	"time"
)

func TestBuildDefaultsCoresToPrograms(t *testing.T) {
	cases := []struct {
		spec Spec
		want int
	}{
		{Spec{}, 1},
		{Spec{Attack: &Attack{Kind: DoubleSidedFlush}}, 1},
		{Spec{Workloads: []Workload{{Name: "mcf"}, {Name: "sjeng"}}}, 2},
		{Spec{
			Attack:    &Attack{Kind: DoubleSidedFlush},
			Workloads: []Workload{{Name: "mcf"}, {Name: "sjeng"}},
		}, 3},
		{Spec{Cores: 4}, 4},
	}
	for i, c := range cases {
		in, err := Build(c.spec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := len(in.Machine.Cores); got != c.want {
			t.Errorf("case %d: %d cores, want %d", i, got, c.want)
		}
	}
}

func TestBuildRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		spec Spec
		frag string
	}{
		{Spec{Attack: &Attack{Kind: "rowpress"}}, "unknown attack"},
		{Spec{Workloads: []Workload{{Name: "doom"}}}, "unknown workload"},
		{Spec{Defense: "faraday-cage"}, "unknown defense"},
	}
	for i, c := range cases {
		if _, err := Build(c.spec); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("case %d: err = %v, want %q", i, err, c.frag)
		}
	}
}

func TestBuildAttachesDefenses(t *testing.T) {
	for _, k := range DefenseKinds() {
		in, err := Build(Spec{Defense: k})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		_, isANVIL := k.anvilParams()
		if isANVIL != (in.Detector != nil) {
			t.Errorf("%s: detector = %v", k, in.Detector)
		}
		wantHW := k != NoDefense && k != DoubleRefresh && !isANVIL
		if wantHW != (in.HW != nil) {
			t.Errorf("%s: hw = %v", k, in.HW)
		}
	}
}

func TestBuildSeedIsDeterministic(t *testing.T) {
	run := func(seed uint64) (time.Duration, bool) {
		in, err := Build(Spec{Seed: seed, Attack: &Attack{Kind: DoubleSidedFlush}})
		if err != nil {
			t.Fatal(err)
		}
		d, flipped, err := in.RunUntilFlip(64 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return d, flipped
	}
	d1, f1 := run(7)
	d2, f2 := run(7)
	if d1 != d2 || f1 != f2 {
		t.Errorf("same seed diverged: %v/%v vs %v/%v", d1, f1, d2, f2)
	}
	if !f1 {
		t.Error("double-sided attack never flipped within 64ms")
	}
}
