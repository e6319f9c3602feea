package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/obs"
)

// wireReps is how many times each recorded frame is encoded and decoded in
// the wire replay; one frame takes well under a microsecond, so a single
// timing would be mostly clock granularity.
const wireReps = 32

// replayWire re-encodes and re-decodes the frames of every stream call the
// traced pass made, one wire.encode and one wire.decode replay span per
// call, each as long as one frame takes on average.
func replayWire(w workload, gens []*gen, tr *tracer) error {
	var (
		buf []byte
		f   wire.Frame
	)
	for gi, g := range gens {
		for i := range g.calls {
			c := &g.calls[i]
			if c.failed() {
				continue
			}
			id, seed := w.session(int(c.sess))
			frames := callFrames(g, c, id, seed)
			if frames == nil {
				continue
			}
			var enc [2][]byte
			for k := range frames {
				var err error
				if enc[k], err = wire.AppendFrame(nil, &frames[k]); err != nil {
					return fmt.Errorf("wire replay of %s: %w", c.kind, err)
				}
			}
			t0 := time.Now()
			for range wireReps {
				buf, _ = wire.AppendFrame(buf[:0], &frames[0]) // encoded once above without error
				buf, _ = wire.AppendFrame(buf, &frames[1])
			}
			encD := time.Since(t0) / (2 * wireReps)
			t0 = time.Now()
			for range wireReps {
				for k := range enc {
					// The 4-byte length prefix is framing the Reader strips.
					if err := wire.DecodeFrame(enc[k][4:], &f); err != nil {
						return fmt.Errorf("wire replay of %s: %w", c.kind, err)
					}
				}
			}
			decD := time.Since(t0) / (2 * wireReps)
			tr.replay("wire.encode", c.span, opID(gi, int(c.op)), encD, c.kind.String(), 0)
			tr.replay("wire.decode", c.span, opID(gi, int(c.op)), decD, c.kind.String(), 0)
		}
	}
	return nil
}

// callFrames rebuilds the request and response frames a stream call
// carried.
func callFrames(g *gen, c *callRec, id string, seed uint64) []wire.Frame {
	req := wire.Frame{Seq: 1, ID: []byte(id)}
	resp := wire.Frame{Seq: 1}
	switch c.kind {
	case kOpen:
		req.Type, req.Resources, req.RMin, req.Seed, req.Init = wire.TOpenReq, resources, rmin, seed, initSamples
		resp.Type, resp.Observations, resp.Evicted = wire.TOpenResp, uint32(c.obs), []byte(g.evictedID(c))
		if c.existing() {
			resp.Flags |= wire.FlagExisting
		}
		if c.restored() {
			resp.Flags |= wire.FlagRestored
		}
	case kSuggest:
		req.Type = wire.TSuggestReq
		resp.Type, resp.Point = wire.TSuggestResp, g.point(c.pt)
	case kObserve:
		req.Type, req.Index, req.Cost, req.Point = wire.TObserveReq, uint32(c.index), c.cost, g.point(c.pt)
		resp.Type, resp.Observations = wire.TObserveResp, uint32(c.index+1)
	case kClose:
		req.Type = wire.TCloseReq
		resp.Type, resp.Closed = wire.TCloseResp, true
	default:
		return nil
	}
	return []wire.Frame{req, resp}
}

// perLayer computes the per-layer metrics from the traced pass tp, its span
// index, and the untraced pass base (for the Go runtime counters and the
// tracing overhead). Every ratio and percentile comes with its base as a
// separate count metric.
func perLayer(w workload, base, tp *pass, ix *traceIndex) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	ops, _, _ := primaryMS(w, tp)
	nOps := float64(len(ops))
	primary := map[int64]bool{}
	for gi, g := range tp.gens {
		for k, op := range g.ops {
			if op.kind == w.primary() {
				primary[opID(gi, k)] = true
			}
		}
	}
	byName := map[string][]int{}
	for i, s := range ix.spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	durs := func(name string, unit time.Duration, keep func(s span) bool) []float64 {
		var out []float64
		for _, i := range byName[name] {
			if s := ix.spans[i]; keep == nil || keep(s) {
				out = append(out, float64(s.End-s.Start)/float64(unit))
			}
		}
		sort.Float64s(out)
		return out
	}
	inPrimary := func(s span) bool { return primary[s.Op] }

	// bo: replayed Next/Observe on the inputs of the primary ops.
	next := durs("bo.next", time.Microsecond, inPrimary)
	put("bo.next_us_p50", quantile(next, 0.5), "us")
	put("bo.observe_us_p50", quantile(durs("bo.observe", time.Microsecond, inPrimary), 0.5), "us")
	put("bo.replayed_nexts", float64(len(next)), "count")
	opUS := quantile(ops, 0.5) * 1000
	put("bo.op_us_p50", opUS, "us")
	put("bo.share_of_op", safeDiv(quantile(next, 0.5), opUS), "ratio")
	var gp []float64
	for _, i := range byName["bo.next"] {
		if s := ix.spans[i]; inPrimary(s) {
			gp = append(gp, float64(s.Size))
		}
	}
	put("bo.gp_size_mean", mean(gp), "count")

	// sessiond: the service's own counters, plus the JSON handler seam.
	c := tp.snap.Counters
	opens := c["sessiond.opens"] + c["sessiond.reopens"]
	put("sessiond.opens", float64(opens), "count")
	put("sessiond.evict_ratio", safeDiv(float64(c["sessiond.evictions"]), float64(opens)), "ratio")
	put("sessiond.restore_ratio", safeDiv(float64(c["sessiond.snapshot_restores"]), float64(opens)), "ratio")
	suggests := c["sessiond.suggests"] + c["sessiond.admission_rejects"]
	put("sessiond.suggests", float64(suggests), "count")
	put("sessiond.admission_reject_ratio", safeDiv(float64(c["sessiond.admission_rejects"]), float64(suggests)), "ratio")
	put("sessiond.batches", float64(c["sessiond.batches"]), "count")
	put("sessiond.batch_size_mean", tp.snap.Histograms["sessiond.batch_size"].Mean(), "count")
	put("sessiond.queue_high_tide", tp.snap.Gauges["sessiond.queue_high_tide"], "count")
	lookups := c["sessiond.mesh_cache_hits"] + c["sessiond.mesh_cache_misses"]
	put("sessiond.mesh_lookups", float64(lookups), "count")
	put("sessiond.mesh_hit_ratio", safeDiv(float64(c["sessiond.mesh_cache_hits"]), float64(lookups)), "ratio")
	handler := durs("sessiond.handler", time.Microsecond, inPrimary)
	put("sessiond.handler_us_p50", quantile(handler, 0.5), "us")
	put("sessiond.handler_calls", float64(len(handler)), "count")

	// wire: replayed frame codec.
	encNS := durs("wire.encode", time.Nanosecond, nil)
	put("wire.frame_encode_ns", quantile(encNS, 0.5), "ns")
	put("wire.frame_decode_ns", quantile(durs("wire.decode", time.Nanosecond, nil), 0.5), "ns")
	put("wire.frames_replayed", float64(2*len(encNS)), "count")

	// transport: client call time minus the replayed server compute.
	replayed := map[int64]int64{}
	for _, name := range []string{"bo.next", "bo.observe"} {
		for _, i := range byName[name] {
			s := ix.spans[i]
			replayed[s.Parent] = s.End - s.Start
		}
	}
	for _, kind := range []string{"suggest", "observe"} {
		var res []float64
		for _, i := range byName["client."+kind] {
			s := ix.spans[i]
			if d, ok := replayed[s.ID]; ok && inPrimary(s) {
				res = append(res, float64(s.End-s.Start-d)/float64(time.Microsecond))
			}
		}
		sort.Float64s(res)
		name := "transport.residual_us_p50"
		if kind != "suggest" {
			name += "." + kind
		}
		put(name, quantile(res, 0.5), "us")
		put("transport.residual_calls."+kind, float64(len(res)), "count")
	}

	// snapstore: the SessionStore seam.
	puts := durs("snapstore.put", time.Microsecond, nil)
	put("snapstore.put_us_p50", quantile(puts, 0.5), "us")
	put("snapstore.get_us_p50", quantile(durs("snapstore.get", time.Microsecond, nil), 0.5), "us")
	put("snapstore.puts", float64(len(puts)), "count")
	put("snapstore.gets", float64(len(byName["snapstore.get"])), "count")
	var putBytes []float64
	for _, i := range byName["snapstore.put"] {
		putBytes = append(putBytes, float64(ix.spans[i].Size))
	}
	put("snapstore.put_bytes_mean", mean(putBytes), "B")
	put("snapstore.puts_per_op", safeDiv(float64(len(puts)), nOps), "count")

	// mesh: the Decimator seam (session-cache misses), attributed to the
	// session whose fetch caused it.
	sessOf := map[int64]int32{}
	for _, g := range tp.gens {
		for _, call := range g.calls {
			sessOf[call.span] = call.sess
		}
	}
	dec := byName["mesh.decimate"]
	sort.Slice(dec, func(a, b int) bool { return ix.spans[dec[a]].Start < ix.spans[dec[b]].Start })
	missCalls := map[int64]bool{}
	seenBy := map[string]map[int32]bool{}
	repeats := 0
	for _, i := range dec {
		call := ix.clientOf(i)
		if call == 0 {
			continue
		}
		missCalls[call] = true
		key, si := ix.spans[i].Key, sessOf[call]
		for other := range seenBy[key] {
			if other != si {
				repeats++
				break
			}
		}
		if seenBy[key] == nil {
			seenBy[key] = map[int32]bool{}
		}
		seenBy[key][si] = true
	}
	put("mesh.decimate_ms_p50", quantile(durs("mesh.decimate", time.Millisecond, nil), 0.5), "ms")
	put("mesh.decimates", float64(len(dec)), "count")
	put("mesh.cross_session_repeat_ratio", safeDiv(float64(repeats), float64(len(dec))), "ratio")

	// edge: client fetch latency split by what the session cache did, the
	// JSON mesh payload, and the client's retries.
	hit := durs("client.decimate", time.Millisecond, func(s span) bool { return inPrimary(s) && !missCalls[s.ID] })
	miss := durs("client.decimate", time.Millisecond, func(s span) bool { return inPrimary(s) && missCalls[s.ID] })
	put("edge.fetch_hit_ms_p50", quantile(hit, 0.5), "ms")
	put("edge.fetch_miss_ms_p50", quantile(miss, 0.5), "ms")
	put("edge.fetches", float64(len(hit)+len(miss)), "count")
	var kb []float64
	for _, i := range byName["http.roundtrip"] {
		if s := ix.spans[i]; s.Key == "/session/decimate" {
			kb = append(kb, float64(s.Size)/1024)
		}
	}
	put("edge.payload_kb_mean", mean(kb), "KiB")
	calls := 0
	for _, g := range tp.gens {
		calls += len(g.calls)
	}
	put("edge.calls", float64(calls), "count")
	put("edge.retry_ratio", safeDiv(float64(tp.retries), float64(calls)), "ratio")

	// Go runtime, from the untraced pass.
	baseOps, _, _ := primaryMS(w, base)
	bn := float64(len(baseOps))
	put("runtime.alloc_kb_per_op", safeDiv(float64(base.alloc)/1024, bn), "KiB")
	put("runtime.gc_cycles_per_kop", safeDiv(float64(base.gcs)*1000, bn), "count")

	// Self time per layer over the primary ops, and the tracing overhead.
	self := map[string]int64{}
	for i, s := range ix.spans {
		if l := layerOf(s.Name); l != "" && !s.Replay && inPrimary(s) {
			self[l] += ix.selfTime(i)
		}
	}
	for _, l := range traceLayers {
		put("trace.self_us_per_op."+l, safeDiv(float64(self[l])/float64(time.Microsecond), nOps), "us")
	}
	baseRate := opsPerSecond(w, base)
	tracedRate := opsPerSecond(w, tp)
	put("trace.ops_per_s_untraced", baseRate, "1/s")
	put("trace.ops_per_s_traced", tracedRate, "1/s")
	put("trace.overhead_ratio", safeDiv(baseRate, tracedRate), "ratio")
	put("trace.spans", float64(len(ix.spans)), "count")
	return m
}

// clientOf walks a span's parents up to the client call span it serves,
// returning that span's ID (0 when unresolved).
func (ix *traceIndex) clientOf(i int) int64 {
	for depth := 0; depth < 8; depth++ {
		s := ix.spans[i]
		if strings.HasPrefix(s.Name, "client.") {
			return s.ID
		}
		p, ok := ix.index(s.Parent)
		if !ok {
			return 0
		}
		i = p
	}
	return 0
}

// checkCounters compares the service's counters at the end of the traced
// pass with what the script must have made them, so a property the report
// derives from the script is also one the service saw.
func checkCounters(want map[string]uint64, snap obs.Snapshot) []failure {
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	var fails []failure
	for _, k := range names {
		if got := snap.Counters[k]; got != want[k] {
			fails = append(fails, failure{0, -1, fmt.Sprintf("service counter %s = %d, the script makes it %d", k, got, want[k])})
		}
	}
	return fails
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
