// Command hboedge runs the standalone edge server of the paper's Figure 3:
// its session service serves virtual-object decimation through per-session
// mesh caches and remote Bayesian-optimization steps over HTTP.
//
// The server is hardened for unattended operation: request bodies are
// size-capped, handlers are time-bounded, slow-client reads and writes time
// out, and SIGINT/SIGTERM drain in-flight requests before exit.
//
// Observability endpoints ride alongside the service routes:
//
//	GET /metricsz     JSON snapshot of the metrics registry and event tap
//	GET /debug/vars   expvar (includes the registry under "hbo")
//	GET /debug/pprof  runtime profiles
//
// With -store-dir the session tier becomes durable: every session snapshot
// lands in a checksummed append-only log, a SIGTERM drain flushes dirty
// sessions, and a restart (even after SIGKILL) warm-restarts the sessions
// the log committed.
//
// Usage:
//
//	hboedge -addr :8080
//	hboedge -addr :8080 -store-dir /var/lib/hbo/sessions -fsync
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	shards := flag.Int("session-shards", 8, "session store lock stripes")
	perShard := flag.Int("session-capacity", 64, "sessions per shard before LRU eviction")
	queue := flag.Int("session-queue", 32, "suggests in flight per shard before admission rejects")
	storeDir := flag.String("store-dir", "", "durable session-store directory (empty disables durability)")
	fsync := flag.Bool("fsync", false, "fsync the session store after every append (with -store-dir)")
	snapEvery := flag.Int("snapshot-every", 1, "snapshot a session after this many mutations; 0 saves only on eviction and drain (with -store-dir)")
	flag.Parse()
	sessCfg := sessiond.DefaultConfig()
	sessCfg.Shards = *shards
	sessCfg.SessionsPerShard = *perShard
	sessCfg.QueueBound = *queue
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *storeDir != "" {
		store, err := snapstore.Open(nil, *storeDir, snapstore.Options{Fsync: *fsync})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hboedge: opening session store: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
		sessCfg.Store = store
		sessCfg.SnapshotEvery = *snapEvery
		if rec := store.Recovery(); rec.Records > 0 || rec.CorruptSegments > 0 {
			fmt.Printf("hboedge: session store recovered %d records from %d segments (%d corrupt, %d torn-tail bytes truncated)\n",
				rec.Records, rec.Segments, rec.CorruptSegments, rec.TornTailBytes)
		}
	}
	if err := run(ctx, *addr, *drain, sessCfg); err != nil {
		fmt.Fprintf(os.Stderr, "hboedge: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, addr string, drain time.Duration, sessCfg sessiond.Config) error {
	// The server's catalog covers every Table II asset.
	catalog := append(render.SC1(), render.SC2()...)
	specs := make([]render.ObjectSpec, 0, len(catalog))
	for _, c := range catalog {
		specs = append(specs, c.Spec)
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		return err
	}
	reg := obs.New()
	srv.SetObserver(reg)
	obs.Publish("hbo", reg)
	sess, err := sessiond.New(sessCfg, srv)
	if err != nil {
		return err
	}
	sess.SetObserver(reg)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	sess.Register(mux)
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	httpSrv := &http.Server{
		Addr:    addr,
		Handler: mux,
		// Bound every phase of a connection so a stalled peer cannot pin
		// one: header read, full request read, response write, keep-alive.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Printf("hboedge: serving %d objects on %s (POST /session/{stream,decimate}; GET /healthz, /metricsz, /session/statz, /debug/vars, /debug/pprof)\n", len(specs), addr)
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Println("hboedge: signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// All connections are drained; flush every dirty session to the store
	// (a no-op without one) so the next start warm-restarts from exactly
	// this state.
	sess.Flush()
	return nil
}
