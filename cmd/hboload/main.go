// Command hboload is the deterministic load generator for hboedge's
// multi-session endpoints: it drives N simulated MAR clients — each a full
// paper-stack session with a seeded scenario, fault-tolerant edge client,
// and server-side BO session — and reports per-session reward trajectories,
// suggest tail latency, and the server's admission/eviction behaviour.
//
// Determinism: with a fixed -seed and -jobs 1 the entire run, including
// every per-session B_t trajectory written by -trajectories, is
// bit-identical across repetitions. With -jobs > 1 the per-session
// trajectories stay deterministic; only wall-clock interleaving varies.
//
// Usage:
//
//	hboedge -addr :8080 &
//	hboload -addr http://localhost:8080 -sessions 256 -seed 7
//	hboload -sessions 8 -jobs 1 -trajectories run.txt   # golden-style dump
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/loadgen"
	"github.com/mar-hbo/hbo/internal/obs"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "hboedge base URL")
	sessions := flag.Int("sessions", 64, "number of simulated clients")
	seed := flag.Uint64("seed", 1, "root seed; fixes every per-client stream")
	scen := flag.String("scenario", "SC2-CF2", "Table II scenario each client builds")
	duration := flag.Float64("duration", 60_000, "virtual session length per client (ms)")
	jobs := flag.Int("jobs", 4, "concurrent clients (1 for bit-identical full runs)")
	initSamples := flag.Int("init", 3, "BO init samples per activation")
	iters := flag.Int("iters", 6, "BO iterations per activation")
	useLOD := flag.Bool("lod", false, "route quality manipulation through the server's session mesh cache")
	moveAt := flag.Float64("move-at", 0, "scripted user movement time in virtual ms (0 = half the duration, negative = never)")
	moveDist := flag.Float64("move-dist", 4.0, "user-object distance after the scripted movement (m)")
	retries := flag.Int("retries", edge.DefaultClientConfig().MaxRetries, "edge client retries per call")
	faultDrop := flag.Float64("fault-drop", 0, "probability a request is dropped before the server")
	fault500 := flag.Float64("fault-500", 0, "probability a request is answered with a synthesized 503")
	faultLatency := flag.Float64("fault-latency", 0, "mean injected request latency (ms)")
	faultSigma := flag.Float64("fault-sigma", 0, "lognormal sigma of the injected latency")
	trajectories := flag.String("trajectories", "", "write byte-exact per-session trajectories to this file (- for stdout)")
	metrics := flag.String("metrics", "", "write the client-side metrics registry snapshot (JSON) to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ccfg := edge.DefaultClientConfig()
	ccfg.MaxRetries = *retries
	reg := obs.New()
	cfg := loadgen.Config{
		BaseURL:      *addr,
		Sessions:     *sessions,
		Seed:         *seed,
		Scenario:     *scen,
		DurationMS:   *duration,
		Jobs:         *jobs,
		InitSamples:  *initSamples,
		Iterations:   *iters,
		MoveAtMS:     *moveAt,
		MoveDistance: *moveDist,
		UseLOD:       *useLOD,
		Faults: faults.Plan{
			DropRate:        *faultDrop,
			ServerErrorRate: *fault500,
			LatencyMeanMS:   *faultLatency,
			LatencySigma:    *faultSigma,
		},
		Client:   &ccfg,
		Observer: reg,
	}
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hboload: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Summary(reg))
	if *trajectories != "" {
		if err := writeTrajectories(rep, *trajectories); err != nil {
			fmt.Fprintf(os.Stderr, "hboload: %v\n", err)
			os.Exit(1)
		}
	}
	if *metrics != "" {
		if err := writeMetrics(reg, *metrics); err != nil {
			fmt.Fprintf(os.Stderr, "hboload: %v\n", err)
			os.Exit(1)
		}
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "hboload: %d of %d sessions failed\n", rep.Failures, len(rep.Sessions))
		os.Exit(1)
	}
}

func writeTrajectories(rep *loadgen.Report, path string) error {
	if path == "-" {
		return rep.WriteTrajectories(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteTrajectories(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
