// Package repro is a full reproduction, in pure Go, of
//
//	Aweke et al., "ANVIL: Software-Based Protection Against
//	Next-Generation Rowhammer Attacks", ASPLOS 2016.
//
// The repository contains a deterministic architectural simulator of the
// paper's machine (DRAM with a disturbance model, Sandy Bridge caches, PEBS
// performance counters, a minimal kernel), the paper's attacks (including
// the first CLFLUSH-free rowhammer), the ANVIL detector itself, baseline
// hardware defenses, and a harness that regenerates every table and figure
// of the evaluation. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// cmd/tables regenerates the evaluation from the experiment registry:
//
//	go run ./cmd/tables -quick
package repro
