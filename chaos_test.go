package hbo_test

// Chaos test: a full HBO session driven through a link to the edge session
// service with injected drops, latency spikes, and 5xx bursts. The
// fault-tolerance layer must keep every control period completing —
// degraded to the on-device decimator and local BO while the link is down —
// and transparently re-adopt the edge once the fault schedule clears
// (circuit breaker back to closed).

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// chaosEdge hosts the edge service (sessiond over an edge.Server catalog of
// the scenario's objects) on a loopback test server and returns the edge
// client, built with cfg, plus a session client bound to it. The session
// uses the scenario's HBO parameters and BO seed 42. stop shuts the server
// down.
func chaosEdge(tb testing.TB, spec scenario.Spec, hbo core.Config, cfg edge.ClientConfig) (ec *edge.Client, sc *sessiond.Client, stop func()) {
	tb.Helper()
	specs := make([]render.ObjectSpec, 0, len(spec.Objects))
	for _, c := range spec.Objects {
		specs = append(specs, c.Spec)
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := sessiond.New(sessiond.DefaultConfig(), srv)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	stop = ts.Close
	if ec, err = edge.NewClientWithConfig(ts.URL, 0, cfg); err == nil {
		sc, err = sessiond.NewClient(ec, "chaos", tasks.NumResources, hbo.RMin, 42, hbo.InitSamples)
	}
	if err != nil {
		stop()
		tb.Fatal(err)
	}
	return ec, sc, stop
}

// chaosPlan fails every request (each non-dropped one gets a 503) and adds
// heavy-tailed latency — drops, spikes, and a 5xx burst at once.
func chaosPlan() faults.Plan {
	return faults.Plan{
		DropRate:        0.35,
		ServerErrorRate: 1,
		LatencyMeanMS:   2,
		LatencySigma:    0.8,
	}
}

func chaosSessionConfig() core.SessionConfig {
	hbo := core.DefaultConfig()
	hbo.InitSamples = 2
	hbo.Iterations = 2
	hbo.PeriodMS = 400
	hbo.SettleMS = 100
	hbo.MonitorIntervalMS = 500
	return core.SessionConfig{
		HBO: hbo,
		// Periodic activations guarantee edge traffic in every phase.
		Mode:               core.Periodic,
		PeriodicIntervalMS: 1500,
	}
}

func TestChaosSessionSurvivesUnreliableEdge(t *testing.T) {
	spec := scenario.SC1CF1()
	built, err := spec.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	sessCfg := chaosSessionConfig()

	inj := faults.NewTransport(nil, 3, faults.Plan{})
	cfg := edge.DefaultClientConfig()
	cfg.Transport = inj
	cfg.MaxRetries = 1
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
	cfg.BreakerFailureThreshold = 3
	cfg.BreakerSuccessThreshold = 1
	cfg.BreakerOpenFor = 30 * time.Millisecond
	client, sc, stop := chaosEdge(t, spec, sessCfg.HBO, cfg)
	defer stop()

	ctx := context.Background()
	rt := built.Runtime
	rt.SetLODProvider(sessiond.NewLOD(ctx, sc))
	rt.SetLocalFallback(render.NewLocalDecimator(built.Library))
	rt.SetBOBackend(sessiond.NewBackend(ctx, sc))
	sess, err := core.NewSession(rt, sessCfg, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}

	// Phase A — clean link: activations flow through the edge.
	if err := sess.RunFor(4000); err != nil {
		t.Fatalf("clean phase: %v", err)
	}
	if sess.DegradedWindows() != 0 {
		t.Fatalf("clean phase recorded %d degraded windows", sess.DegradedWindows())
	}
	if inj.Stats().Passed == 0 {
		t.Fatal("clean phase made no edge requests — the chaos phase would test nothing")
	}

	// Phase B — chaos: every request drops or 5xxes, with latency spikes.
	// The session must complete every control period without error, on the
	// local fallback.
	inj.SetPlan(chaosPlan())
	if err := sess.RunFor(8000); err != nil {
		t.Fatalf("chaos phase errored — no graceful degradation: %v", err)
	}
	if sess.DegradedWindows() == 0 {
		t.Fatal("chaos phase recorded no degraded windows")
	}
	st := client.BreakerStats()
	if st.Opens == 0 {
		t.Fatalf("breaker never opened under total link failure: %+v", st)
	}
	if !rt.Degraded() {
		t.Fatal("runtime not in degraded mode at the end of the chaos phase")
	}
	degradedAtRecovery := sess.DegradedWindows()

	// Phase C — fault schedule clears: after the breaker's open window the
	// next activation probes the edge, succeeds, and re-adopts it.
	inj.SetPlan(faults.Plan{})
	time.Sleep(cfg.BreakerOpenFor + 20*time.Millisecond)
	passedBefore := inj.Stats().Passed
	if err := sess.RunFor(6000); err != nil {
		t.Fatalf("recovery phase: %v", err)
	}
	if st := client.BreakerStats(); st.State != edge.BreakerClosed {
		t.Fatalf("breaker did not re-close after recovery: %+v", st)
	}
	if rt.Degraded() {
		t.Fatal("runtime still degraded after edge recovery")
	}
	if inj.Stats().Passed == passedBefore {
		t.Fatal("no edge requests succeeded after recovery — edge not re-adopted")
	}
	// Later recovery windows must not keep counting as degraded.
	tail := sess.Samples()[len(sess.Samples())-1]
	if tail.Degraded {
		t.Fatal("final window still flagged degraded")
	}
	if got := sess.DegradedWindows(); got > degradedAtRecovery+4 {
		t.Fatalf("degraded windows kept growing after recovery: %d -> %d", degradedAtRecovery, got)
	}
}
