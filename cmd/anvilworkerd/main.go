// Command anvilworkerd is the stateless replicate worker of the distributed
// sweep plane. Point it at an anvilserved coordinator started with
// -distribute; it claims replicate slot leases, recomputes them through the
// shared experiment registry (replicate seeds are pure functions of the job
// seed and slot index, so worker results are byte-identical to coordinator
// results), uploads each result as it completes, and heartbeats its leases
// so the coordinator knows it is alive.
//
// Usage:
//
//	anvilworkerd -coordinator URL [-id NAME] [-api-key KEY] [-max-slots N]
//	             [-poll D] [-grace D] [-seed N]
//
// Workers hold no durable state: SIGKILLing one loses nothing (its leases
// expire and the slots are reassigned), and SIGTERM stops it gracefully —
// the in-flight replicate finishes and uploads, unstarted slots are
// abandoned, the lease is released explicitly, and the process exits within
// the -grace bound.
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
	"repro/internal/workerd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("anvilworkerd: ")
	var (
		coordinator = flag.String("coordinator", "", "anvilserved base URL, e.g. http://127.0.0.1:8356 (required)")
		id          = flag.String("id", "", "worker name in leases and logs (default worker-<pid>)")
		apiKey      = flag.String("api-key", "", "X-API-Key identifying this worker")
		maxSlots    = flag.Int("max-slots", 0, "slots per claim (0 = the coordinator's maximum, 4)")
		poll        = flag.Duration("poll", workerd.DefaultPoll, "claim polling interval while idle")
		grace       = flag.Duration("grace", workerd.DefaultGrace, "bound on finishing in-flight work after SIGTERM")
		seed        = flag.Uint64("seed", 0, "retry-jitter seed (vary across a fleet)")
	)
	flag.Parse()
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "anvilworkerd: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}
	w := workerd.New(workerd.Options{
		Coordinator: *coordinator,
		APIKey:      *apiKey,
		ID:          *id,
		MaxSlots:    *maxSlots,
		Poll:        *poll,
		Grace:       *grace,
		Seed:        *seed,
		Logf:        log.Printf,
	})
	if err := run(w); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run is the audited single-exit body of the worker: every failure funnels
// back here as an error and exits through main's one os.Exit. The first
// SIGTERM/SIGINT starts the graceful stop; a second signal kills the
// process the default way.
func run(w *workerd.Worker) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := w.Run(ctx)
	stop()
	return err
}
