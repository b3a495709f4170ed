// Command sonar-worker executes shard leases against a sonar-server: it
// long-polls the campaign service for work, elaborates the granted DUT
// (sharing the contention-point analysis across leases), runs each leased
// batch through the fuzzing engine, and reports results back. Any number of
// workers may serve one server; results are deterministic regardless of
// worker count, death, or restart (docs/SERVICE.md).
//
// Usage:
//
//	sonar-worker -server URL [-id NAME] [-poll 500ms] [-max-leases N] [-lanes N]
//
// Examples:
//
//	sonar-worker -server http://localhost:8714                # run until killed
//	sonar-worker -server http://localhost:8714 -max-leases 10 # bounded stint
//	sonar-worker -server http://localhost:8714 -lanes 64      # force widest evaluator
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"sonar/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sonar-worker: ")
	var (
		server    = flag.String("server", "", "campaign server base URL (required), e.g. http://localhost:8714")
		id        = flag.String("id", "", "worker identifier recorded on its leases (default host-pid)")
		poll      = flag.Duration("poll", 0, "back-off after a failed acquire before trying again (default 500ms); with no work the server parks the acquire instead")
		maxLeases = flag.Int("max-leases", 0, "exit after executing this many leases (0 = run until killed)")
		lanes     = flag.Int("lanes", 0, "evaluator batch width override, 1..64 (0 = use the server's suggestion; results are identical at every width)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %v", flag.Args())
	}
	if *server == "" {
		log.Fatal("-server is required (e.g. -server http://localhost:8714)")
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("worker %s serving %s", *id, *server)
	n, err := fleet.RunWorker(ctx, fleet.NewClient(*server), fleet.WorkerOptions{
		ID:        *id,
		Poll:      *poll,
		MaxLeases: *maxLeases,
		Lanes:     *lanes,
	})
	if err != nil {
		log.Fatalf("after %d leases: %v", n, err)
	}
	log.Printf("done: %d leases executed", n)
}
