// A CLFLUSH-free Evict+Reload covert channel (the §2.2 corollary: "our
// CLFLUSH-free cache flushing method can extend [Flush+Reload] to
// situations where the CLFLUSH instruction is not available"). A sender and
// a receiver share one read-only page; the receiver evicts the probe line
// with a pagemap-built eviction set, waits, reloads it and classifies the
// sender's bit from the measured load latency.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/machine"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	in, err := scenario.Build(scenario.Spec{Cores: 2})
	if err != nil {
		log.Fatal(err)
	}
	m := in.Machine

	// The "shared library" page both processes map.
	frame, err := m.Kernel.Alloc.Alloc()
	if err != nil {
		log.Fatal(err)
	}
	cc := attack.DefaultCovertConfig(in.AttackOptions())
	cc.SharedFrame = frame

	msg := []byte("no clflush needed")
	bits := attack.EncodeBits(msg)
	snd, err := attack.NewCovertSender(cc, bits)
	if err != nil {
		log.Fatal(err)
	}
	rcv, err := attack.NewCovertReceiver(cc, len(bits))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Spawn(0, snd); err != nil {
		log.Fatal(err)
	}
	if _, err := m.Spawn(1, rcv); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(1 << 40); !errors.Is(err, machine.ErrAllDone) {
		log.Fatal(err)
	}

	got := rcv.Bits()
	match := 0
	for i := range bits {
		if i < len(got) && bits[i] == got[i] {
			match++
		}
	}
	slotNS := m.Freq.Nanos(cc.SlotCycles)
	fmt.Printf("sent     %q (%d bits, %.0f ns per bit => %.0f kbit/s)\n",
		msg, len(bits), slotNS, 1e6/slotNS)
	fmt.Printf("received %q\n", attack.DecodeBits(got))
	fmt.Printf("bit accuracy %.1f%%, CLFLUSH instructions executed: %d\n",
		100*float64(match)/float64(len(bits)),
		m.Cores[0].Stats.Flushes+m.Cores[1].Stats.Flushes)
}
