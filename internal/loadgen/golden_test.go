package loadgen_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/loadgen"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// runFixed executes the fixed golden configuration against a fresh session
// service and returns the byte-exact trajectory dump.
func runFixed(t *testing.T) []byte {
	t.Helper()
	svc, err := sessiond.New(sessiond.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    ts.URL,
		Sessions:   4,
		Seed:       7,
		Jobs:       1,
		DurationMS: 30_000,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Failures != 0 {
		for _, s := range rep.Sessions {
			if s.Err != "" {
				t.Errorf("session %s failed: %s", s.ID, s.Err)
			}
		}
		t.Fatalf("%d sessions failed", rep.Failures)
	}
	var buf bytes.Buffer
	if err := rep.WriteTrajectories(&buf); err != nil {
		t.Fatalf("write trajectories: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenTrajectories is the regression fence around the whole remote
// session pipeline: a fixed-seed single-worker load run must reproduce the
// checked-in per-session reward trajectories byte for byte — hex float bits
// included — and must do so twice within one process (no hidden global
// state). Regenerate deliberately with:
//
//	go test ./internal/loadgen -run TestGoldenTrajectories -update
func TestGoldenTrajectories(t *testing.T) {
	first := runFixed(t)
	second := runFixed(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical runs diverged:\n%s", firstDiff(first, second))
	}

	golden := filepath.Join("testdata", "trajectories.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(first))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("trajectories drifted from golden file %s:\n%s\n"+
			"If the change is intentional, regenerate with -update.",
			golden, firstDiff(want, first))
	}
}

// firstDiff locates the first differing line of two dumps.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
