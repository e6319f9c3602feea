package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
)

// catalogSpecs is the SC1+SC2 catalog cmd/hboedge serves.
func catalogSpecs() []render.ObjectSpec {
	catalog := append(render.SC1(), render.SC2()...)
	specs := make([]render.ObjectSpec, 0, len(catalog))
	for _, c := range catalog {
		specs = append(specs, c.Spec)
	}
	return specs
}

// catalogNames lists catalogSpecs' names; calls record an asset by its
// index here.
var catalogNames = func() []string {
	var names []string
	for _, sp := range catalogSpecs() {
		names = append(names, sp.Name)
	}
	return names
}()

// catalogIndex is the index of the named asset in catalogNames, or -1.
func catalogIndex(name string) int { return indexOf(catalogNames, name) }

// stack is the edge service hosted in-process the way cmd/hboedge wires it:
// edge.Server over the catalog, a sessiond.Service on sessiond.DefaultConfig
// (plus a FileStore with SnapshotEvery=1 when durable, as -store-dir runs),
// and both route sets on one net/http server on a loopback listener.
type stack struct {
	svc   *sessiond.Service
	store *snapstore.FileStore
	dir   string
	hs    *http.Server
	base  string
	serve chan error
	reg   *obs.Registry
}

// startStack brings the service up. dir, when non-empty, holds the durable
// session store. tr, when non-nil, wraps the Decimator, SessionStore and
// http.Handler seams with span recorders and attaches an obs registry.
func startStack(dir string, tr *tracer) (*stack, error) {
	specs := catalogSpecs()
	srv, err := edge.NewServer(specs)
	if err != nil {
		return nil, err
	}
	// Catalog-geometry warm-up: the server builds full-quality meshes
	// lazily, so the first decimation of each object would otherwise pay
	// for geometry generation inside a timed op.
	for _, sp := range specs {
		if _, err := srv.Decimate(sp.Name, 1, false); err != nil {
			return nil, fmt.Errorf("warming %s: %w", sp.Name, err)
		}
	}
	st := &stack{dir: dir, serve: make(chan error, 1)}
	cfg := sessiond.DefaultConfig()
	if dir != "" {
		store, err := snapstore.Open(nil, dir, snapstore.Options{})
		if err != nil {
			return nil, fmt.Errorf("opening session store: %w", err)
		}
		st.store = store
		cfg.Store = store
		cfg.SnapshotEvery = 1
		if tr != nil {
			cfg.Store = &tracedStore{SessionStore: store, tr: tr}
		}
	}
	var dec sessiond.Decimator = srv
	if tr != nil {
		st.reg = obs.New()
		srv.SetObserver(st.reg)
		dec = &tracedDecimator{dec: srv, tr: tr}
	}
	svc, err := sessiond.New(cfg, dec)
	if err != nil {
		st.closeStore()
		return nil, err
	}
	st.svc = svc
	if tr != nil {
		svc.SetObserver(st.reg)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	svc.Register(mux)
	var h http.Handler = mux
	if tr != nil {
		h = &tracedHandler{next: mux, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		st.closeStore()
		return nil, err
	}
	// The connection timeouts cmd/hboedge sets.
	st.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	st.base = "http://" + ln.Addr().String()
	go func() { st.serve <- st.hs.Serve(ln) }()
	return st, nil
}

// stop drains the HTTP server, stops the shard workers, closes the store
// and removes its directory. Clients must be closed first: a live stream
// keeps its connection active and would hold Shutdown until the deadline.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.svc.Close()
	if cerr := st.closeStore(); err == nil {
		err = cerr
	}
	return err
}

func (st *stack) closeStore() error {
	if st.store == nil {
		return nil
	}
	err := st.store.Close()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one closed-loop generator's connection to the stack: its own
// edge.Client (pooled transport, retry/backoff/breaker defaults) and, for
// stream workloads, its own StreamClient multiplexing every session.
type client struct {
	ec *edge.Client
	sc *sessiond.StreamClient
}

func newClient(base string, stream bool, tr *tracer) (*client, error) {
	cfg := edge.DefaultClientConfig()
	if tr != nil {
		cfg.Transport = &tracedTransport{next: edge.NewPooledTransport(cfg.MaxIdleConnsPerHost), tr: tr}
	}
	ec, err := edge.NewClientWithConfig(base, 16, cfg)
	if err != nil {
		return nil, err
	}
	c := &client{ec: ec}
	if stream {
		if c.sc, err = sessiond.NewStreamClient(ec); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// session builds a session client bound to this connection.
func (c *client) session(id string, seed uint64) (*sessiond.Client, error) {
	sc, err := sessiond.NewClient(c.ec, id, resources, rmin, seed, initSamples)
	if err != nil {
		return nil, err
	}
	if c.sc != nil {
		sc.SetStream(c.sc)
	}
	return sc, nil
}

func (c *client) close() {
	if c.sc != nil {
		_ = c.sc.Close() // always nil; it only tears the connection down
	}
	c.ec.HTTPClient().CloseIdleConnections()
}
