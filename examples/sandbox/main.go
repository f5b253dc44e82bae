// The NaCl-style sandbox escape (the paper's §5.1, first weaponization):
// a sandboxed program's code is validated at load time — only safe
// instructions, jumps constrained to bundle-aligned targets. The program
// then rowhammers *its own code segment*. Bit flips happen below the
// sandbox's sight: a flipped bit can turn a validated instruction into an
// unconstrained jump into the middle of an instruction bundle, where bytes
// re-parse as illegal operations. Seaborn & Dullien measured that ~13% of
// possible bit flips in an instruction are exploitable; this model uses the
// same rate (4 exploitable bit positions of 32).
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/scenario"
)

const (
	codeVA   = uint64(0x7000_0000) // the sandboxed module's code segment
	codeMB   = 16
	instBits = 32 // one "instruction" per 32 bits
)

// exploitable reports whether flipping the given bit position within an
// instruction word yields an unconstrained jump (the opcode-class field):
// 4 of 32 bit positions, matching the paper's ~13%.
func exploitable(bitInWord int) bool { return bitInWord >= 28 }

type retargetable struct{ hammer machine.Program }

func (r *retargetable) Name() string               { return "nacl-module" }
func (r *retargetable) Init(p *machine.Proc) error { return nil }
func (r *retargetable) Next() machine.Op {
	if r.hammer == nil {
		return machine.Op{Kind: machine.OpCompute, Cycles: 1000}
	}
	return r.hammer.Next()
}

func main() {
	log.SetFlags(0)
	in, err := scenario.Build(scenario.Spec{})
	if err != nil {
		log.Fatal(err)
	}
	m := in.Machine
	prog := &retargetable{}
	proc, err := m.Spawn(0, prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := proc.AS.MapContiguous(codeVA, codeMB<<20); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sandbox: validated %d MB of module code — all instructions safe, all jumps bundle-aligned\n", codeMB)

	mapper := m.Mem.DRAM.Mapper()
	basePA, err := proc.AS.Translate(codeVA)
	if err != nil {
		log.Fatal(err)
	}
	baseCoord := mapper.Map(basePA)

	// The module hammers rows inside its own (validated!) code segment.
	opts := in.AttackOptions()
	opts.AutoTarget, opts.BufferMB = false, codeMB
	start := time.Now()
	for trial := 0; trial < 60; trial++ {
		opts.Target = attack.Target{Bank: baseCoord.Bank, VictimRow: baseCoord.Row + 4 + trial*2}
		a, err := attack.NewDoubleSidedFlush(opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := a.Init(proc); err != nil {
			log.Fatal(err)
		}
		prog.hammer = a

		before := m.Mem.DRAM.FlipCount()
		deadline := m.Cores[0].Now + m.Freq.Cycles(64*time.Millisecond)
		for m.Cores[0].Now < deadline && m.Mem.DRAM.FlipCount() == before {
			if err := m.Run(m.Cores[0].Now + m.Freq.Cycles(2*time.Millisecond)); err != nil &&
				!errors.Is(err, machine.ErrAllDone) {
				log.Fatal(err)
			}
		}
		for _, f := range m.Mem.DRAM.Flips()[before:] {
			pa := mapper.Unmap(dram.Coord{Bank: f.Bank, Row: f.Row})
			if pa < basePA || pa >= basePA+codeMB<<20 {
				continue // flip outside the code segment
			}
			inst := (pa - basePA + uint64(f.Bit/8)) / (instBits / 8)
			bit := f.Bit % instBits
			if exploitable(bit) {
				fmt.Printf("  flip in instruction %d, bit %d: VALIDATED instruction became an\n", inst, bit)
				fmt.Println("  unconstrained jump — control transfers into the middle of a bundle")
				fmt.Printf("\nsandbox escaped after hammering %d rows (%.1fs host, %.0f ms simulated)\n",
					trial+1, time.Since(start).Seconds(), m.Freq.Millis(m.Cores[0].Now))
				fmt.Println("the validator never re-runs: hardware changed the code after the check")
				return
			}
			fmt.Printf("  flip in instruction %d, bit %d: still a safe instruction, rehammering\n", inst, bit)
		}
	}
	fmt.Println("no exploitable flip among the hammered rows (weak cells elsewhere); rerun with another seed")
}
