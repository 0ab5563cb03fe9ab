// Command nutriserve serves the estimation pipeline over HTTP — the
// online counterpart of the one-shot nutriprofile CLI.
//
// Routes:
//
//	POST /v1/estimate  {"phrase": "2 cups flour"}           → per-phrase pipeline trace
//	POST /v1/recipe    {"ingredients": [...], "servings": 4, "method": "baked"}
//	                                                        → aggregated recipe profile
//	POST /v1/batch     NDJSON stream of the two bodies above → one NDJSON
//	                                                          response line per input line
//	GET  /v1/healthz                                        → liveness probe
//	GET  /v1/stats                                          → memo/matcher/HTTP counters
//	GET  /metrics                                           → Prometheus text exposition
//	POST /admin/reload {"path": "/data/new.img"}            → hot-swap the DB (with -db;
//	                                                          loopback peers only)
//
// The server sheds load above -max-in-flight concurrent estimation
// requests (429 + Retry-After; it never queues unboundedly), bounds
// request bodies at -max-body bytes (413), deadlines every request at
// -timeout (504), and on SIGINT/SIGTERM stops accepting connections and
// drains in-flight requests for up to -drain before exiting.
//
// Usage:
//
//	nutriserve -addr :8080 -cache 8192 -workers 0 -max-in-flight 64
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/server"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/bake"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInFlight := flag.Int("max-in-flight", 64, "admitted estimation requests before load shedding (429)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window for in-flight requests")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
	workers := flag.Int("workers", 0, "ingredient worker pool per recipe (0: one per CPU)")
	batchWindow := flag.Int("batch-window", 0, "NDJSON lines per /v1/batch pipeline window (0: default 64)")
	batchWorkers := flag.Int("batch-workers", 0, "estimator workers per /v1/batch window (0: half the CPUs)")
	maxBulkStreams := flag.Int("max-bulk-streams", 0, "concurrently open /v1/batch streams before shedding (0: max-in-flight/4)")
	cacheSize := flag.Int("cache", 8192, "memoization cache entries (phrase + match level); 0 disables")
	cachePolicy := flag.String("cache-policy", "tinylfu", "memo cache admission policy: lru or tinylfu")
	coalesce := flag.Bool("coalesce", true, "coalesce concurrent estimates of the same phrase onto one pipeline pass (no effect with -cache 0)")
	regional := flag.Bool("regional", false, "use the merged SR+FAO composition table")
	dbImage := flag.String("db", "", "serve from a baked DB image (cmd/dbbake); enables POST /admin/reload")
	fuzzy := flag.Bool("fuzzy", false, "enable typo-tolerant matching")
	quiet := flag.Bool("quiet", false, "disable per-request access logging")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	flag.Parse()

	policy, err := memo.ParsePolicy(*cachePolicy)
	if err != nil {
		log.Fatalf("nutriserve: %v", err)
	}
	opts := core.Options{FuzzyMatch: *fuzzy, CacheSize: *cacheSize, DisableCoalescing: !*coalesce, CachePolicy: policy}
	var est *core.Estimator
	switch {
	case *dbImage != "":
		// Baked image: single-read load, index adopted zero-copy, and the
		// image stays hot-swappable at runtime via POST /admin/reload.
		if *regional {
			log.Fatalf("nutriserve: -db and -regional are mutually exclusive")
		}
		ld, lerr := bake.LoadFile(*dbImage)
		if lerr != nil {
			log.Fatalf("nutriserve: loading %s: %v", *dbImage, lerr)
		}
		est, err = core.NewWithIndex(ld.DB, nil, opts, ld.Index, *dbImage)
	case *regional:
		est, err = core.New(usda.WithRegional(), nil, opts)
	default:
		est, err = core.New(usda.Seed(), nil, opts)
	}
	if err != nil {
		log.Fatalf("nutriserve: %v", err)
	}

	var access *log.Logger
	if !*quiet {
		access = log.New(os.Stdout, "", log.LstdFlags|log.Lmicroseconds)
	}
	srv, err := server.New(server.Config{
		Estimator:      est,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Workers:        *workers,
		BatchWindow:    *batchWindow,
		BatchWorkers:   *batchWorkers,
		MaxBulkStreams: *maxBulkStreams,
		RetryAfter:     *retryAfter,
		EnableReload:   *dbImage != "",
		AccessLog:      access,
	})
	if err != nil {
		log.Fatalf("nutriserve: %v", err)
	}

	// Profiling listener, off by default and always separate from the
	// serving listener so the debug surface is never exposed on the
	// public address. Routes are registered on a private mux — the
	// default mux stays empty.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("nutriserve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("nutriserve: pprof listener: %v", err)
			}
		}()
	}

	// SIGINT/SIGTERM flips the serve context; Serve then drains
	// in-flight requests before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	st := est.SnapshotStats()
	log.Printf("nutriserve: listening on %s (max-in-flight=%d timeout=%s cache=%d foods=%d db=%s v%d)",
		*addr, *maxInFlight, *timeout, *cacheSize, st.Foods, st.Source, st.Version)
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "nutriserve: %v\n", err)
		os.Exit(1)
	}
	log.Printf("nutriserve: drained, exiting")
}
