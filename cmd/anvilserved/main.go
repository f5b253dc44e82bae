// Command anvilserved is the crash-safe sweep service: a long-running HTTP
// daemon that runs registry experiments (the same tables and figures
// cmd/tables regenerates) as journaled jobs.
//
// Usage:
//
//	anvilserved -data DIR [-addr HOST:PORT] [-queue N] [-workers N]
//	            [-parallel N] [-quota-reps N] [-quota-wall D]
//	            [-drain-timeout D] [-portfile PATH]
//	            [-distribute] [-lease-ttl D]
//
// Every submitted job spec is journaled and fsynced under -data before the
// submission is acknowledged, and every job state transition is an
// append-only record, so killing the server — even with SIGKILL — loses no
// acknowledged work: on restart it replays the journal, re-queues pending
// jobs, and resumes interrupted sweeps from their per-spec checkpoint
// journals. SIGTERM/SIGINT drain gracefully: submissions get 503, running
// sweeps are cancelled at a replicate boundary (their completed replicates
// are already checkpointed), and the process exits within -drain-timeout.
//
// With -distribute the daemon also coordinates a fleet of anvilworkerd
// processes: shardable jobs get a distribution phase where workers claim
// replicate slot leases (at most 4 slots per claim; anvilworkerd -max-slots
// asks for fewer), compute them, and upload results into the job's sweep
// journal. The phase ends when every slot is uploaded or reported failed by
// a worker, or after one -lease-ttl with no lease traffic for the job; the
// coordinator then computes whatever is left in-process — a reported
// failure included, so the job fails or keeps going exactly as it would
// without a fleet. -distribute is therefore always safe to enable.
//
// API (all JSON):
//
//	POST /v1/jobs                   submit a job spec; 202 on admission, 200
//	                                when answered from cache or coalesced
//	                                onto a live job, 429 when over quota or
//	                                the queue is full
//	GET  /v1/jobs/{id}              job status
//	GET  /v1/jobs/{id}/result       artifact bytes (200), or 202 while pending
//	GET  /v1/quota                  the caller's charged usage (X-API-Key)
//	GET  /v1/healthz                readiness: queue depth, draining flag,
//	                                lease counts, journal-lock liveness
//
// With -distribute only (404 otherwise):
//
//	POST /v1/leases/claim           claim a slot lease (204 + Retry-After
//	                                when no work is free)
//	POST /v1/leases/{id}/renew      heartbeat a lease; 410 once it expired
//	POST /v1/leases/{id}/results    upload one replicate's result, or report
//	                                it failed (idempotent)
//	POST /v1/leases/{id}/release    give a lease back explicitly
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	_ "repro/internal/experiments" // registers every table and figure
	"repro/internal/sweepd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("anvilserved: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:8356", "listen address (host:port; port 0 picks a free port)")
		data         = flag.String("data", "", "data directory for journals and artifacts (required)")
		queue        = flag.Int("queue", sweepd.DefaultQueueDepth, "admission queue depth; full queue answers 429")
		workers      = flag.Int("workers", 1, "concurrent jobs")
		parallel     = flag.Int("parallel", 0, "per-sweep worker pool (0 = GOMAXPROCS); never changes results")
		quotaReps    = flag.Int("quota-reps", 0, "per-caller fresh-replicate quota (0 = unlimited)")
		quotaWall    = flag.Duration("quota-wall", 0, "per-caller wall-clock quota (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", sweepd.DefaultDrainTimeout, "graceful drain deadline on SIGTERM/SIGINT")
		portfile     = flag.String("portfile", "", "write the bound listen address to this file (for harnesses using port 0)")
		distribute   = flag.Bool("distribute", false, "open the worker lease plane (POST /v1/leases/...) for anvilworkerd fleets")
		leaseTTL     = flag.Duration("lease-ttl", sweepd.DefaultLeaseTTL, "slot-lease lifetime without a heartbeat, and a sharded job's wait without lease traffic before it computes in-process")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "anvilserved: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	d := sweepd.Daemon{
		Addr: *addr,
		Data: *data,
		Opts: sweepd.ServerOptions{
			QueueDepth: *queue,
			Workers:    *workers,
			Parallel:   *parallel,
			Quota:      sweepd.Quota{Replicates: *quotaReps, WallClock: *quotaWall},
			Distribute: *distribute,
			LeaseTTL:   *leaseTTL,
		},
		DrainTimeout: *drainTimeout,
		Portfile:     *portfile,
		Logf:         log.Printf,
	}
	if err := run(d); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run is the audited single-exit body of the daemon: every failure funnels
// back here as an error and exits through main's one os.Exit.
func run(d sweepd.Daemon) error {
	// ctx ends on the first SIGTERM/SIGINT, which starts the graceful
	// drain; a second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := d.Run(ctx)
	stop()
	return err
}
