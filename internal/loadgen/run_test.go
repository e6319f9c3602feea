package loadgen_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/loadgen"
	"github.com/mar-hbo/hbo/internal/render"
)

// TestRunConcurrentWithFaults drives a multi-worker fleet through a seeded
// fault injector: the per-client retry stack must absorb the (deterministic)
// drops and 503s with zero failed sessions, and per-session results must be
// complete despite the concurrency. Run under -race this covers the shared
// observer registry and the server's shard workers.
func TestRunConcurrentWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet run")
	}
	svc, err := sessiond.New(sessiond.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    ts.URL,
		Sessions:   6,
		Seed:       11,
		Jobs:       3,
		DurationMS: 30_000,
		Faults: faults.Plan{
			DropRate:        0.05,
			ServerErrorRate: 0.05,
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Failures != 0 {
		for _, s := range rep.Sessions {
			if s.Err != "" {
				t.Errorf("session %s: %s", s.ID, s.Err)
			}
		}
		t.Fatalf("%d of %d sessions failed under injected faults", rep.Failures, len(rep.Sessions))
	}
	for _, s := range rep.Sessions {
		if len(s.Samples) == 0 {
			t.Errorf("session %s recorded no reward samples", s.ID)
		}
		if s.Activations == 0 {
			t.Errorf("session %s recorded no activations", s.ID)
		}
	}
	if rep.TotalRemote == 0 {
		t.Error("no remote proposals recorded — the fleet never exercised the session BO path")
	}
}

// TestRunLODCleanLinkNeverDegrades routes quality manipulation through the
// session mesh caches on a fault-free link: no window may fall back to the
// local decimator. The scene's first mesh fetch comes before the BO backend
// has opened the session, so this pins the LOD path opening it first.
func TestRunLODCleanLinkNeverDegrades(t *testing.T) {
	var specs []render.ObjectSpec
	for _, c := range append(render.SC1(), render.SC2()...) {
		specs = append(specs, c.Spec)
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sessiond.New(sessiond.DefaultConfig(), srv)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    ts.URL,
		Sessions:   2,
		Seed:       3,
		Jobs:       2,
		DurationMS: 30_000,
		UseLOD:     true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, s := range rep.Sessions {
		if s.Err != "" {
			t.Errorf("session %s: %s", s.ID, s.Err)
		}
		if len(s.Samples) == 0 {
			t.Errorf("session %s recorded no reward samples", s.ID)
		}
		if s.DegradedWindows != 0 {
			t.Errorf("session %s: %d of %d windows degraded on a clean link", s.ID, s.DegradedWindows, len(s.Samples))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  loadgen.Config
	}{
		{"empty base URL", loadgen.Config{Sessions: 1}},
		{"zero sessions", loadgen.Config{BaseURL: "http://x"}},
		{"negative duration", loadgen.Config{BaseURL: "http://x", Sessions: 1, DurationMS: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := loadgen.Run(context.Background(), tc.cfg); err == nil {
				t.Fatal("Run accepted an invalid config")
			}
		})
	}
}
