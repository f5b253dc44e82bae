package machine

import (
	"testing"

	"repro/internal/vm"
)

// periodicLoop is loadLoop declared periodic, so the batched core tags its
// requests and the cache hierarchy replays their repeating state.
type periodicLoop struct{ loadLoop }

var _ PeriodicProgram = (*periodicLoop)(nil)

func (p *periodicLoop) Period() (uint64, []Op) { return p.i, p.ring[:p.lines] }

// TestBatchedEpochSteadyStateAllocs pins the allocation-free property of the
// epoch planner and batched inner loop: once the core's request scratch and
// the memory system's lazy state are warm, advancing the machine through
// many epochs must not allocate. With a periodic program that covers the
// request ring, cache replay and the iteration skip (with DRAM reads and
// activations, for the hammer loop), and, when each run first settles the
// hierarchy through Contains, the materialisation, the re-recording and the
// new summaries that follow an interruption.
func TestBatchedEpochSteadyStateAllocs(t *testing.T) {
	// Two lines of one bank in different rows, each flushed after its load.
	hammer := func() *ringProg {
		return &ringProg{pages: 33, iter: []Op{
			{Kind: OpLoad, VA: ringBase}, {Kind: OpFlush, VA: ringBase},
			{Kind: OpLoad, VA: ringBase + 32*vm.PageSize}, {Kind: OpFlush, VA: ringBase + 32*vm.PageSize},
		}}
	}
	cases := []struct {
		name      string
		prog      BatchProgram
		interrupt bool
	}{
		{"load-loop", &loadLoop{n: 1 << 40}, false},
		{"periodic", &periodicLoop{loadLoop{n: 1 << 40, lines: 8}}, false},
		{"periodic-interrupted", &periodicLoop{loadLoop{n: 1 << 40, lines: 8}}, true},
		{"hammer", hammer(), false},
		{"hammer-interrupted", hammer(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Spawn(0, c.prog); err != nil {
				t.Fatal(err)
			}
			if _, periodic := c.prog.(PeriodicProgram); periodic != (m.Cores[0].pprog != nil) {
				t.Fatalf("Spawn cached pprog %v for a program that is periodic: %v", m.Cores[0].pprog, periodic)
			}
			run := func() {
				if c.interrupt {
					m.Mem.Caches.Contains(0x100000)
				}
				if err := m.RunFor(1 << 12); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				run() // warm up: scratch buffers, recording buffers
			}
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("steady-state batched Run allocates %.1f times per run, want 0", allocs)
			}
			periodic := m.Cores[0].pprog != nil
			if periodic != (m.ringServed > 0) {
				t.Errorf("the ring served %d requests of a program that is periodic: %v", m.ringServed, periodic)
			}
			if periodic != (m.itersSkipped > 0) {
				t.Errorf("the skip applied %d iterations of a program that is periodic: %v", m.itersSkipped, periodic)
			}
		})
	}
}

// TestPerOpSteadyStateAllocs pins the same property for the BatchCap=1
// escape hatch, so forcing per-op stepping for bisection never changes the
// allocation profile either.
func TestPerOpSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchCap = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, &loadLoop{n: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunFor(1 << 16); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.RunFor(1 << 12); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state per-op Run allocates %.1f times per run, want 0", allocs)
	}
}
