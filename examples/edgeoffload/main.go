// Edgeoffload: the distributed path of the paper's Figure 3 and §VI. A
// local edge service runs the virtual-object decimation algorithm and —
// per §VI's overhead discussion — the Bayesian optimization step itself;
// the MAR client opens one session on it, downloads decimated meshes
// through the session's server-side mesh cache, and drives a remote BO loop
// whose per-iteration payload is a few dozen bytes.
//
// This example exercises the wire protocol end to end on a loopback
// listener — including what happens when the link misbehaves: a fault
// injector degrades the connection mid-run, the client rides it out with
// retries, and a sustained outage trips the circuit breaker, which re-closes
// once the link heals. Run cmd/hboedge for a standalone server.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "edgeoffload: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// Start the edge service on a loopback port: the session routes over
	// a decimation catalog of the SC1 objects.
	specs := make([]render.ObjectSpec, 0)
	for _, c := range render.SC1() {
		specs = append(specs, c.Spec)
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		return err
	}
	svc, err := sessiond.New(sessiond.DefaultConfig(), srv)
	if err != nil {
		return err
	}
	reg := obs.New()
	svc.SetObserver(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	defer func() {
		_ = httpSrv.Close()
		<-serveErr // wait for the serve goroutine to exit
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("edge service on %s\n\n", base)

	// All client traffic flows through a fault injector — clean for the
	// first two sections, then degraded in section 3.
	inj := faults.NewTransport(nil, 11, faults.Plan{})
	cfg := edge.DefaultClientConfig()
	cfg.Transport = inj
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 10 * time.Millisecond
	cfg.BreakerFailureThreshold = 3
	cfg.BreakerSuccessThreshold = 1
	cfg.BreakerOpenFor = 50 * time.Millisecond
	client, err := edge.NewClientWithConfig(base, 0, cfg)
	if err != nil {
		return err
	}
	// One session: 3 resources, r_min 0.1, seed 42, the paper's 5 initial
	// samples.
	sess, err := sessiond.NewClient(client, "edgeoffload", 3, 0.1, 42, 5)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := sess.Open(ctx); err != nil {
		return err
	}

	// 1. Decimated-mesh downloads through the session's mesh cache on the
	// edge: a repeated ratio is served without decimating again.
	for _, ratio := range []float64{0.7, 0.4, 0.7, 0.4, 0.2} {
		m, err := sess.Decimate(ctx, "apricot", ratio, false)
		if err != nil {
			return err
		}
		fmt.Printf("decimate apricot to %.0f%%: %5d triangles\n", ratio*100, m.TriangleCount())
	}
	counters := reg.Snapshot().Counters
	fmt.Printf("session mesh cache: %d hits, %d misses\n\n",
		counters["sessiond.mesh_cache_hits"], counters["sessiond.mesh_cache_misses"])

	// 2. Remote Bayesian optimization: the device only uploads (point,
	// cost) observations and downloads the next configuration to test;
	// the session keeps the GP history on the edge. Here the black box is a
	// synthetic stand-in for the measured cost.
	cost := func(p []float64) float64 {
		dx := p[3] - 0.72
		return (1-p[2])*0.8 + 3*dx*dx
	}
	// Each observe names its database slot, so a retried observe whose
	// response was lost is acknowledged rather than appended twice.
	best, bestCost, observed := []float64(nil), 0.0, 0
	observe := func(p []float64) error {
		c := cost(p)
		if best == nil || c < bestCost {
			best, bestCost = p, c
		}
		if err := sess.ObserveAt(ctx, observed, p, c); err != nil {
			return err
		}
		observed++
		return nil
	}
	rng := sim.NewRNG(9)
	dom := bo.Domain{N: 3, RMin: 0.1}
	for i := 0; i < 5; i++ { // initial random exploration happens on-device
		if err := observe(dom.Sample(rng)); err != nil {
			return err
		}
	}
	for iter := 0; iter < 10; iter++ {
		point, err := sess.Suggest(ctx)
		if err != nil {
			return err
		}
		if err := observe(point); err != nil {
			return err
		}
	}
	fmt.Printf("remote BO after 15 observations: best cost %.3f at ratio %.2f (target 0.72)\n\n",
		bestCost, best[3])

	// 3. Fault tolerance. First a lossy-but-alive link: every download's
	// first attempt drops, and the client's retry/backoff loop absorbs it.
	next := inj.Requests()
	inj.SetPlan(faults.Plan{Flaps: []faults.Window{{From: next, To: next + 1}, {From: next + 2, To: next + 3}, {From: next + 4, To: next + 5}}})
	for _, ratio := range []float64{0.35, 0.55, 0.85} {
		if _, err := sess.Decimate(ctx, "apricot", ratio, false); err != nil {
			return fmt.Errorf("lossy link: %w", err)
		}
	}
	fmt.Printf("lossy link (every first attempt drops): 3 downloads OK after %d retries\n", client.Retries())

	// Then a hard outage: every request 503s. After three consecutive
	// failures the breaker opens and further calls fail fast without
	// touching the network.
	inj.SetPlan(faults.Plan{ServerErrorRate: 1})
	for i := 0; i < 4; i++ {
		_, err := sess.Decimate(ctx, "apricot", 0.25+float64(i)*0.02, false)
		st := client.BreakerStats()
		switch {
		case errors.Is(err, edge.ErrUnavailable):
			fmt.Printf("outage call %d: fast-fail, breaker %s (%d short-circuits)\n", i+1, st.State, st.ShortCircuits)
		case err != nil:
			fmt.Printf("outage call %d: %v (breaker %s)\n", i+1, err, st.State)
		default:
			fmt.Printf("outage call %d: unexpectedly succeeded\n", i+1)
		}
	}

	// Link heals: once the open window lapses, a half-open probe succeeds
	// and the breaker re-closes — the edge is re-adopted transparently.
	inj.SetPlan(faults.Plan{})
	time.Sleep(cfg.BreakerOpenFor + 10*time.Millisecond)
	m, err := sess.Decimate(ctx, "apricot", 0.6, false)
	if err != nil {
		return fmt.Errorf("post-recovery download: %w", err)
	}
	st := client.BreakerStats()
	fmt.Printf("link healed: %d triangles downloaded, breaker %s after %d opens\n",
		m.TriangleCount(), st.State, st.Opens)
	fs := inj.Stats()
	fmt.Printf("injector totals: %d requests (%d passed, %d dropped, %d synthesized 5xx)\n",
		fs.Requests, fs.Passed, fs.Drops, fs.Synth5xx)
	return sess.CloseSession(ctx)
}
