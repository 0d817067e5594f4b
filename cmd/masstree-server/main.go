// Command masstree-server runs the Masstree key-value server (§3, §5): a
// TCP server over a persistent in-memory Masstree with per-worker
// group-commit logging and periodic checkpoints. On startup it recovers
// from the newest valid checkpoint plus logs in -data.
//
// With -backend the store becomes the fast tier of a read-through
// hierarchy: misses consult the backend (thundering herds coalesced into
// one load per key), evicted values spill to it asynchronously when
// -write-behind is set, and a failing backend degrades to stale-if-error
// service behind a circuit breaker instead of hanging requests.
//
// With -admin the server additionally exposes an observability listener —
// never on the data-plane port — serving /metrics (Prometheus text), /varz
// (JSON stats + latency histograms), /flightrecorder (the merged trace of
// internal transitions), and /debug/pprof/*. The admin endpoint and the
// wire Stats op render from the same snapshot machinery, so a dashboard and
// an old stats script cannot disagree.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting,
// gives connections -drain-timeout to finish, flushes the WAL, drains the
// write-behind queue, takes a final checkpoint (when -data is set), and
// exits 0 — or 1 if any drain step ran out its budget, meaning clients may
// have seen resets or spilled values may not have reached the backend.
//
// Usage:
//
//	masstree-server -listen :7500 -data /var/lib/masstree -workers 4 \
//	    -checkpoint-every 5m -checkpoint-parts 8 -sync \
//	    -backend file:/var/lib/masstree-backend -write-behind 1024
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/kvstore"
	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen    = flag.String("listen", ":7500", "TCP listen address")
		data      = flag.String("data", "", "persistence directory (empty = in-memory only)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "log streams / logical workers")
		syncWr    = flag.Bool("sync", false, "fsync logs on each group commit")
		flushMs   = flag.Duration("flush", 200*time.Millisecond, "log flush interval (group commit bound)")
		ckptEvery = flag.Duration("checkpoint-every", 0, "checkpoint period (0 = manual only)")
		ckptParts = flag.Int("checkpoint-parts", runtime.GOMAXPROCS(0),
			"concurrent checkpoint part writers (disjoint key ranges; recovery loads parts in parallel)")
		maxBytes = flag.Int64("max-bytes", 0,
			"cache mode: bound accounted live bytes (packed value sizes), evicting S3-FIFO-style; 0 = unbounded")

		backendSpec = flag.String("backend", "",
			"read-through backend tier; \"file:<dir>\" serves misses from one-file-per-key storage")
		backendTimeout = flag.Duration("backend-timeout", 2*time.Second, "per-call backend timeout")
		backendRetries = flag.Int("backend-retries", 2, "backend retry budget per call (jittered exponential backoff)")
		backendBreaker = flag.Int("backend-breaker", 5,
			"consecutive backend failures that open the circuit breaker (0 = breaker off)")
		backendConc = flag.Int("backend-concurrency", 64, "max concurrent backend calls (0 = unlimited)")
		loadTTL     = flag.Duration("load-ttl", 0,
			"TTL stamped on backend-loaded values (0 = loaded values never expire)")
		negativeTTL = flag.Duration("negative-ttl", time.Second,
			"how long an authoritative backend miss is remembered (negative cache)")
		maxStale = flag.Duration("max-stale", 0,
			"stale-if-error window: serve a value expired at most this long ago when the backend is down (0 = off)")
		writeBehind = flag.Int("write-behind", 0,
			"async write-behind queue capacity: evicted values spill to the backend (0 = off)")

		drainTimeout = flag.Duration("drain-timeout", 5*time.Second,
			"graceful-shutdown budget for each drain step (connections, write-behind queue)")

		adminAddr = flag.String("admin", "",
			"admin HTTP listen address serving /metrics, /varz, /flightrecorder, /debug/pprof/* (empty = off)")
	)
	flag.Parse()

	be, err := openBackend(*backendSpec, *loadTTL, backend.WrapConfig{
		Timeout:         *backendTimeout,
		Retries:         *backendRetries,
		Concurrency:     *backendConc,
		BreakerFailures: *backendBreaker,
	})
	if err != nil {
		log.Printf("masstree-server: backend: %v", err)
		return 1
	}

	store, err := kvstore.Open(kvstore.Config{
		Dir:           *data,
		Workers:       *workers,
		FlushInterval: *flushMs,
		SyncWrites:    *syncWr,
		MaxBytes:      int(*maxBytes),
		Backend:       be,
		NegativeTTL:   *negativeTTL,
		MaxStale:      *maxStale,
		WriteBehind:   *writeBehind,
	})
	if err != nil {
		log.Printf("masstree-server: open store: %v", err)
		return 1
	}
	if *maxBytes > 0 {
		log.Printf("masstree-server: cache mode, max-bytes=%d", *maxBytes)
	}
	if be != nil {
		log.Printf("masstree-server: read-through backend %q (write-behind=%d)", *backendSpec, *writeBehind)
	}
	log.Printf("masstree-server: recovered %d keys", store.Len())

	// Catch shutdown signals before the address is announced: anyone who
	// saw the "serving on" line may signal us, and an uninstalled handler
	// would let the default action kill the process mid-drain.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	srv := server.New(store, *workers)
	if err := srv.Listen(*listen); err != nil {
		log.Printf("masstree-server: listen: %v", err)
		store.Close()
		return 1
	}
	log.Printf("masstree-server: serving on %s (%d workers, data=%q)", srv.Addr(), *workers, *data)

	var admin *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Printf("masstree-server: admin listen: %v", err)
			srv.Close()
			store.Close()
			return 1
		}
		admin = &http.Server{Handler: srv.AdminMux()}
		go func() {
			if err := admin.Serve(aln); err != nil && err != http.ErrServerClosed {
				log.Printf("masstree-server: admin: %v", err)
			}
		}()
		log.Printf("masstree-server: admin endpoint on %s (/metrics /varz /flightrecorder /debug/pprof)", aln.Addr())
	}

	stopCkpt := make(chan struct{})
	if *ckptEvery > 0 && *data != "" {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					start := time.Now()
					if _, n, err := store.CheckpointN(*ckptParts); err != nil {
						log.Printf("masstree-server: checkpoint failed: %v", err)
					} else {
						log.Printf("masstree-server: checkpointed %d keys in %s", n, time.Since(start).Round(time.Millisecond))
					}
				case <-stopCkpt:
					return
				}
			}
		}()
	}

	<-sig
	fmt.Fprintln(os.Stderr, "masstree-server: shutting down")
	close(stopCkpt)
	if admin != nil {
		// The admin plane goes first: a scrape arriving mid-teardown would
		// read a store being closed. Bounded like every other drain step.
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		admin.Shutdown(ctx)
		cancel()
	}
	return shutdown(srv, store, *data != "", *ckptParts, *drainTimeout)
}

// shutdown runs the graceful teardown sequence and returns the process exit
// code: 0 for a clean drain, 1 when any step exhausted its budget or failed
// (acknowledged work may not have reached its destination).
func shutdown(srv *server.Server, store *kvstore.Store, persistent bool, ckptParts int, drainTimeout time.Duration) int {
	code := 0
	if !srv.Shutdown(drainTimeout) {
		log.Printf("masstree-server: connection drain timed out after %s", drainTimeout)
		code = 1
	}
	// The network is quiet: no new writes can arrive. Make what was
	// acknowledged durable, in dependency order — WAL first (it covers every
	// acked put), then the write-behind spill queue, then a final checkpoint
	// so restart recovery is cheap.
	if err := store.Flush(); err != nil {
		log.Printf("masstree-server: final WAL flush: %v", err)
		code = 1
	}
	if !store.DrainWriteBehind(drainTimeout) {
		log.Printf("masstree-server: write-behind drain timed out after %s", drainTimeout)
		code = 1
	}
	if persistent {
		if _, n, err := store.CheckpointN(ckptParts); err != nil {
			log.Printf("masstree-server: final checkpoint: %v", err)
			code = 1
		} else {
			log.Printf("masstree-server: final checkpoint: %d keys", n)
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("masstree-server: close: %v", err)
		code = 1
	}
	return code
}

// openBackend parses the -backend spec. Only the "file:<dir>" scheme exists
// today; the Wrap decorator stack (timeout, retries, concurrency cap,
// circuit breaker) is applied to whatever the spec names.
func openBackend(spec string, loadTTL time.Duration, cfg backend.WrapConfig) (backend.Backend, error) {
	if spec == "" {
		return nil, nil
	}
	dir, ok := strings.CutPrefix(spec, "file:")
	if !ok || dir == "" {
		return nil, fmt.Errorf("unsupported backend spec %q (want file:<dir>)", spec)
	}
	fb, err := backend.NewFile(nil, dir, loadTTL)
	if err != nil {
		return nil, err
	}
	return backend.Wrap(fb, cfg), nil
}
