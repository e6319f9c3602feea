package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/sim"
)

// newReplayPolicy builds the policy sessiond builds for a generated
// session: the GP-EI default over the same domain, bo.DefaultConfig with
// the session's Init, and the session's seed.
func newReplayPolicy(seed uint64) (bo.Policy, error) {
	cfg := bo.DefaultConfig()
	cfg.InitSamples = initSamples
	return policies.New("", bo.Domain{N: resources, RMin: rmin}, cfg, sim.NewRNG(seed))
}

// forEach calls f(i) for every i in [0, n) on workers goroutines, or on
// one goroutine per CPU when workers is 0, and returns when all are done.
func forEach(n, workers int, f func(i int)) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// replayAll replays every session's suggest/observe sequence through a
// local policy and reports each suggestion that is not bit-identical to
// the server's. Sessions replay on one goroutine per CPU, except when tr is
// set: then they replay one at a time and each Next and Observe becomes a
// replay span, so its duration is comparable to the server's own compute.
func replayAll(g *gen, bySess map[int][]*callRec, session func(int) (string, uint64), tr *tracer) []failure {
	ids := make([]int, 0, len(bySess))
	for si := range bySess {
		ids = append(ids, si)
	}
	sort.Ints(ids)
	workers := 0
	if tr != nil {
		workers = 1
	}
	var (
		mu    sync.Mutex
		fails []failure
	)
	forEach(len(ids), workers, func(i int) {
		si := ids[i]
		_, seed := session(si)
		f := replaySession(g, si, bySess[si], seed, tr)
		mu.Lock()
		fails = append(fails, f...)
		mu.Unlock()
	})
	sort.Slice(fails, func(i, j int) bool { return fails[i].op < fails[j].op })
	return fails
}

func replaySession(g *gen, si int, calls []*callRec, seed uint64, tr *tracer) []failure {
	gi := g.idx
	pol, err := newReplayPolicy(seed)
	if err != nil {
		return []failure{{gi, int(calls[0].op), fmt.Sprintf("session %d: building replay policy: %v", si, err)}}
	}
	for _, c := range calls {
		if c.failed() {
			// The op already failed; the server's state past it is unknown.
			return nil
		}
		op := int(c.op)
		switch c.kind {
		case kSuggest:
			n := pol.Observations()
			t0 := time.Now()
			p, err := pol.Next()
			d := time.Since(t0)
			if tr != nil {
				tr.replay("bo.next", c.span, opID(gi, op), d, "", n)
			}
			if err != nil || !sameBits(p, g.point(c.pt)) {
				return []failure{{gi, op, fmt.Sprintf("session %d suggestion at n=%d differs from local replay (%v)", si, n, err)}}
			}
		case kObserve:
			t0 := time.Now()
			err := pol.Observe(g.point(c.pt), c.cost)
			if tr != nil {
				tr.replay("bo.observe", c.span, opID(gi, op), time.Since(t0), "", int(c.index))
			}
			if err != nil {
				return []failure{{gi, op, fmt.Sprintf("session %d: replaying observe %d: %v", si, c.index, err)}}
			}
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// localTriangles decimates every (asset, step) the run fetched through a
// private edge.Server over the same catalog, on one goroutine per CPU.
func localTriangles(gens []*gen) (map[string]int, error) {
	type key struct{ obj, step int16 }
	var keys []key
	seen := map[key]bool{}
	for _, g := range gens {
		for _, c := range g.calls {
			if k := (key{c.obj, c.step}); c.kind == kDecimate && !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	srv, err := edge.NewServer(catalogSpecs())
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
	)
	forEach(len(keys), 0, func(i int) {
		k := keys[i]
		m, err := srv.Decimate(catalogNames[k.obj], float64(k.step)/50, false)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		out[meshKeyString(k.obj, k.step)] = m.TriangleCount()
	})
	return out, firstErr
}
