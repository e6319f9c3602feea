// Command perfbench is the edge service's end-to-end benchmark. It hosts
// the service in-process exactly as cmd/hboedge wires it, drives it through
// the public session clients with a closed-loop generator on a fixed,
// seeded operation sequence, checks every output, and prints each metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// repeats the same workload and seed with span recording attached and
// reports the per-layer ones. See README.md for the workloads and why each
// exists. Usage (from the repository root):
//
//	python3 perfbench/run.py --workload warm-bo --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/mar-hbo/hbo/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string // scratch space: store directories and the span file
	commit   string
	size     int // workload size: sessions (warm-bo, lod-fetch) or rounds (session-churn)
	setups   int // set-ups measured; the last one serves the run
}

// Work per second of requested run length, sized on a 2-core x86 box so a
// run's timed phase lasts about -seconds there. The op sequence depends
// only on the seed and -seconds, never on a timer.
var workRate = map[string]float64{
	"warm-bo":       5.5, // BO sessions of 60 iterations
	"session-churn": 1.3, // rounds of 4096 visits
	"lod-fetch":     1.4, // sessions of 20 LOD refreshes
}

var workloadNames = []string{"warm-bo", "session-churn", "lod-fetch"}

func plan(name string, seed uint64, size int) (workload, error) {
	switch name {
	case "warm-bo":
		return planWarmBO(seed, size), nil
	case "session-churn":
		return planChurn(seed, size), nil
	case "lod-fetch":
		w, err := planLOD(seed, size)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func parse(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 9}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.IntVar(&cfg.seconds, "seconds", 8, "run length the workload is sized for")
	trace := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit the benchmark was built from")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workRate[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds %d must be >= 1", cfg.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	cfg.trace = *trace == 1
	cfg.size = max(1, int(math.Round(float64(cfg.seconds)*workRate[cfg.workload])))
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// pass is one timed execution of a workload's script.
type pass struct {
	gens    []*gen
	start   time.Time
	wall    time.Duration
	cpu     time.Duration
	rssMB   float64
	alloc   uint64
	gcs     uint32
	retries int
	snap    obs.Snapshot
	fails   []failure
}

// bench runs the untimed set-ups, the timed pass and its checks, and with
// cfg.trace the separate traced pass.
func bench(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	w, err := plan(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, 0, cfg.setups)
	p, err := runPass(cfg, w, nil, &setups)
	if err != nil {
		return nil, err
	}
	p.fails = w.check(p.gens, nil)
	rep := newReport(cfg, w, p, setups)
	if !cfg.trace {
		return rep, nil
	}
	// The traced pass needs only the untraced pass's op log; free its call
	// log first, since a traced session-churn pass is large.
	for _, g := range p.gens {
		g.calls = nil
	}
	tw, err := plan(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	spans := 0
	for g := range tw.clients() {
		n := tw.capacity(g)
		spans += n.ops + 5*n.calls // op, call, replay and server spans
	}
	tr := newTracer(spans)
	tp, err := runPass(cfg, tw, tr, nil)
	if err != nil {
		return nil, err
	}
	want := tw.expect()
	tp.fails = append(tw.check(tp.gens, tr), checkCounters(want, tp.snap)...)
	rep.Report.CheckedCounters = want
	if tw.stream() {
		if err := replayWire(tw, tp.gens, tr); err != nil {
			return nil, err
		}
	}
	ix := link(tr.spans)
	rep.addTraced(tw, tp, ix)
	path := filepath.Join(cfg.outDir, cfg.workload+".spans.jsonl")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.Report.SpanFile = path
	return rep, nil
}

// runPass brings the stack up (cfg.setups times when setups is non-nil,
// recording each set-up's duration), runs the workload's load goroutines to
// the end of their script, and tears the stack down.
func runPass(cfg config, w workload, tr *tracer, setups *[]float64) (*pass, error) {
	n := 1
	if setups != nil {
		n = cfg.setups
	}
	var (
		st  *stack
		cls []*client
	)
	for i := range n {
		t0 := time.Now()
		var err error
		st, cls, err = bringUp(cfg, w, tr, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if setups != nil {
			*setups = append(*setups, time.Since(t0).Seconds())
		}
		if i < n-1 {
			if err := tearDown(st, cls); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
	}
	p := &pass{}
	for i, c := range cls {
		p.gens = append(p.gens, newGen(i, c, tr, w.capacity(i)))
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, g := range p.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.drive(g)
		}()
	}
	wg.Wait()
	p.start = t0
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.rssMB = peakRSSMB()
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	for _, c := range cls {
		p.retries += c.ec.Retries()
	}
	p.snap = st.reg.Snapshot()
	if err := tearDown(st, cls); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	return p, nil
}

// bringUp starts the stack and one client per load goroutine, then warms
// each client's connection with a throwaway session (the stream transport
// negotiates on first contact).
func bringUp(cfg config, w workload, tr *tracer, i int) (*stack, []*client, error) {
	dir := ""
	if w.durable() {
		dir = filepath.Join(cfg.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	st, err := startStack(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	cls := make([]*client, 0, w.clients())
	for k := range w.clients() {
		c, err := newClient(st.base, w.stream(), tr)
		if err == nil {
			if tr != nil {
				c.ec.SetObserver(st.reg)
			}
			cls = append(cls, c)
			err = warmUp(c, k)
		}
		if err != nil {
			return nil, nil, errors.Join(err, tearDown(st, cls))
		}
	}
	return st, cls, nil
}

func warmUp(c *client, k int) error {
	sc, err := c.session(fmt.Sprintf("warmup-%d", k), 1)
	if err != nil {
		return err
	}
	g := newGen(k, c, nil, logSize{calls: 2})
	if _, err := g.call(newCall(kOpen, -1), "", openCall(sc)); err != nil {
		return fmt.Errorf("warm-up open: %w", err)
	}
	if _, err := g.call(newCall(kClose, -1), "", closeCall(sc)); err != nil {
		return fmt.Errorf("warm-up close: %w", err)
	}
	return nil
}

func tearDown(st *stack, cls []*client) error {
	for _, c := range cls {
		c.close()
	}
	return st.stop()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// provenance names the machine and build a result came from.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func newProvenance(cfg config) provenance {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return provenance{
		CPUModel:   model,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     cfg.commit,
		Seed:       cfg.seed,
	}
}

// ---- statistics -----------------------------------------------------------

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(r, 1), len(sorted))-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder lists the percentiles a tail is reported at. It stops at p99:
// past it, op latency on a shared 2-core host is set by host scheduling and
// disk flush stalls that vary from run to run by more than any bound a
// regression gate could use.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, its value, and how many samples lie beyond.
func tail(sorted []float64) (q, v float64, beyond int) {
	q = tailLadder[0]
	for _, c := range tailLadder {
		if len(sorted)-int(math.Ceil(c*float64(len(sorted)))) >= 10 {
			q = c
		}
	}
	return q, quantile(sorted, q), len(sorted) - int(math.Ceil(q*float64(len(sorted))))
}

// rateBlocks is how many consecutive blocks of completed ops ops_per_s is
// the median over.
const rateBlocks = 5

// opsPerSecond is the median, over rateBlocks equal blocks of the pass's
// successful primary ops in completion order, of each block's ops per wall
// second. A host stall that covers less than two fifths of the timed phase
// leaves it unchanged.
func opsPerSecond(w workload, p *pass) float64 {
	bad, _ := failedOps(p)
	var ends []time.Duration
	for gi, g := range p.gens {
		for k, op := range g.ops {
			if op.kind == w.primary() && !bad[[2]int{gi, k}] {
				ends = append(ends, op.end.Sub(p.start))
			}
		}
	}
	if len(ends) < rateBlocks {
		return float64(len(ends)) / p.wall.Seconds()
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	rates := make([]float64, rateBlocks)
	prev := time.Duration(0)
	for b := range rateBlocks {
		lo, hi := b*len(ends)/rateBlocks, (b+1)*len(ends)/rateBlocks
		rates[b] = float64(hi-lo) / (ends[hi-1] - prev).Seconds()
		prev = ends[hi-1]
	}
	return median(rates)
}

// ---- report ---------------------------------------------------------------

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: provenance, the workload property report,
// the metrics of both kinds, and any check failures.
type detail struct {
	Workload     string             `json:"workload"`
	Seconds      int                `json:"seconds"`
	Size         int                `json:"size"`
	Provenance   provenance         `json:"provenance"`
	Properties   []property         `json:"properties"`
	TailQuantile float64            `json:"op_tail_quantile"`
	TailBeyond   int                `json:"op_tail_samples_beyond"`
	OpSamples    int                `json:"op_samples"`
	KindP50MS    map[string]float64 `json:"kind_p50_ms"`
	KindCount    map[string]int     `json:"kind_count"`
	EndToEnd     map[string]metric  `json:"end_to_end"`
	PerLayer     map[string]metric  `json:"per_layer,omitempty"`
	SetupRuns    []float64          `json:"setup_runs_s"`
	GenLogMB     float64            `json:"generator_log_mb"` // the generator's share of peak_rss_mb
	// CheckedCounters are the service counters the traced pass ended with,
	// each equal to what the script makes it (a mismatch is a failure).
	CheckedCounters map[string]uint64 `json:"checked_counters,omitempty"`
	Failures        []string          `json:"failures,omitempty"`
	SpanFile        string            `json:"span_file,omitempty"`
}

type report struct {
	Result result
	Report detail
	base   *pass
}

// failedOps returns the set of ops (by goroutine and index) that failed a
// call or an output check, and the failure messages.
func failedOps(p *pass) (map[[2]int]bool, []string) {
	bad := map[[2]int]bool{}
	var msgs []string
	for gi, g := range p.gens {
		for k, op := range g.ops {
			if op.err != nil {
				bad[[2]int{gi, k}] = true
				msgs = append(msgs, fmt.Sprintf("client %d op %d: %v", gi, k, op.err))
			}
		}
	}
	for _, f := range p.fails {
		bad[[2]int{f.gen, f.op}] = true
		msgs = append(msgs, f.msg)
	}
	return bad, msgs
}

// primaryMS returns the sorted latencies (ms) of the pass's successful
// primary ops, plus per-kind medians and counts.
func primaryMS(w workload, p *pass) ([]float64, map[string]float64, map[string]int) {
	bad, _ := failedOps(p)
	byKind := map[string][]float64{}
	for gi, g := range p.gens {
		for k, op := range g.ops {
			if !bad[[2]int{gi, k}] {
				byKind[op.kind] = append(byKind[op.kind], float64(op.dur)/float64(time.Millisecond))
			}
		}
		for _, c := range g.calls {
			if !c.failed() && c.op >= 0 {
				k := "call." + c.kind.String()
				byKind[k] = append(byKind[k], float64(c.dur)/float64(time.Millisecond))
			}
		}
	}
	p50 := map[string]float64{}
	count := map[string]int{}
	for k, v := range byKind {
		sort.Float64s(v)
		p50[k] = quantile(v, 0.5)
		count[k] = len(v)
	}
	return byKind[w.primary()], p50, count
}

func newReport(cfg config, w workload, p *pass, setups []float64) *report {
	ops, p50, count := primaryMS(w, p)
	attempted := 0
	for _, g := range p.gens {
		attempted += len(g.ops)
	}
	bad, msgs := failedOps(p)
	q, tv, beyond := tail(ops)
	n := float64(len(ops))
	logBytes := 0
	for _, g := range p.gens {
		logBytes += g.logBytes()
	}
	e2e := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"op_p50_ms":     {quantile(ops, 0.5), "ms"},
		"op_tail_ms":    {tv, "ms"},
		"ops_per_s":     {opsPerSecond(w, p), "1/s"},
		"cpu_ms_per_op": {float64(p.cpu) / float64(time.Millisecond) / n, "ms"},
		"peak_rss_mb":   {p.rssMB, "MB"},
	}
	r := &report{base: p}
	r.Result = result{Correct: len(bad) == 0, Attempted: max(attempted, 1), Failed: len(bad), Metrics: e2e}
	r.Report = detail{
		Workload: cfg.workload, Seconds: cfg.seconds, Size: cfg.size,
		Provenance: newProvenance(cfg), Properties: w.properties(p.gens),
		TailQuantile: q, TailBeyond: beyond, OpSamples: len(ops),
		KindP50MS: p50, KindCount: count, EndToEnd: map[string]metric{},
		SetupRuns: setups, GenLogMB: float64(logBytes) / (1 << 20), Failures: firstN(msgs, 10),
	}
	for k, v := range e2e {
		r.Report.EndToEnd[k] = v
	}
	r.Report.EndToEnd["failed_ratio"] = metric{ratio(len(bad), max(attempted, 1)), "ratio"}
	return r
}

// addTraced folds the traced pass in: its ops and failures count toward
// the result, and the per-layer metrics replace the end-to-end ones on the
// result line.
func (r *report) addTraced(w workload, tp *pass, ix *traceIndex) {
	bad, msgs := failedOps(tp)
	for _, g := range tp.gens {
		r.Result.Attempted += len(g.ops)
	}
	r.Result.Failed += len(bad)
	r.Result.Correct = r.Result.Correct && len(bad) == 0
	r.Report.Failures = firstN(append(r.Report.Failures, msgs...), 10)
	r.Report.PerLayer = perLayer(w, r.base, tp, ix)
	r.Result.Metrics = r.Report.PerLayer
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// print writes a human-readable table, the detail line and the result line.
func (r *report) print(out io.Writer) error {
	fmt.Fprintf(out, "perfbench %s seed=%d size=%d on %s (%d CPUs, GOMAXPROCS=%d, %s, commit %s)\n",
		r.Report.Workload, r.Report.Provenance.Seed, r.Report.Size, r.Report.Provenance.CPUModel,
		r.Report.Provenance.NProc, r.Report.Provenance.GOMAXPROCS, r.Report.Provenance.GoVersion, r.Report.Provenance.Commit)
	for _, p := range r.Report.Properties {
		fmt.Fprintf(out, "  property %-34s %12.6f %-6s base %d\n", p.Name, p.Value, p.Unit, p.Base)
	}
	printMetrics(out, "end-to-end", r.Report.EndToEnd)
	fmt.Fprintf(out, "  op_tail_ms is p%g with %d of %d samples beyond it\n", 100*r.Report.TailQuantile, r.Report.TailBeyond, r.Report.OpSamples)
	fmt.Fprintf(out, "  the generator's op, call and point logs hold %.1f MB of peak_rss_mb\n", r.Report.GenLogMB)
	if r.Report.PerLayer != nil {
		printMetrics(out, "per-layer", r.Report.PerLayer)
	}
	for _, f := range r.Report.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]detail{"report": r.Report}); err != nil {
		return err
	}
	return enc.Encode(r.Result)
}

func printMetrics(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-10s %-36s %14.6g %s\n", title, k, ms[k].Value, ms[k].Unit)
	}
}
