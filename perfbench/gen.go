package main

import (
	"context"
	"time"
	"unsafe"
)

// opRec is one timed op as the closed-loop client saw it.
type opRec struct {
	kind string // "warm"/"init" (warm-bo), "visit", "refresh"
	n    int    // GP database size at the op's suggest (warm-bo only)
	dur  time.Duration
	end  time.Time
	err  error
}

// callKind names a session-API call.
type callKind uint8

const (
	kOpen callKind = iota
	kSuggest
	kObserve
	kClose
	kDecimate
)

var callKindNames = [...]string{"open", "suggest", "observe", "close", "decimate"}

func (k callKind) String() string { return callKindNames[k] }

// Open flags.
const (
	fExisting uint8 = 1 << iota // the session was live
	fRestored                   // the session was restored from a snapshot
	fFailed                     // the call returned an error (its op records it)
)

// pointDim is the length of every suggested and observed point.
const pointDim = resources + 1

// callRec is one call into the session API: what was sent and received,
// kept for the output checks and the traced run's replays. It is kept
// compact, with points and evicted IDs held by the gen, because a
// session-churn run records a quarter of a million calls and the log stays
// resident through the timed phase.
type callRec struct {
	dur   time.Duration
	span  int64   // span ID (traced runs)
	cost  float64 // observe
	op    int32   // index of the enclosing op in gen.ops; -1 outside any op
	sess  int32   // index into the workload's session table
	index int32   // observe: database slot
	pt    int32   // suggest: returned point; observe: observed point (gen.point)
	obs   int32   // open: observations the server reported
	evict int32   // open: index of the evicted ID in gen.evicted; -1 for none
	tris  int32   // decimate: triangles received
	obj   int16   // decimate: asset index in the catalog
	step  int16   // decimate: ratio step on the 2% grid
	kind  callKind
	flags uint8
}

func (c *callRec) failed() bool   { return c.flags&fFailed != 0 }
func (c *callRec) existing() bool { return c.flags&fExisting != 0 }
func (c *callRec) restored() bool { return c.flags&fRestored != 0 }

// newCall starts the record of a call of the given kind on session si.
func newCall(kind callKind, si int) callRec {
	return callRec{kind: kind, sess: int32(si), pt: -1, evict: -1}
}

// observeRec is the record of an ObserveAt of kept point pt at slot index.
func observeRec(si, index int, pt int32, cost float64) callRec {
	c := newCall(kObserve, si)
	c.index, c.pt, c.cost = int32(index), pt, cost
	return c
}

// gen is one closed-loop load goroutine: it issues its script's calls in
// order and records every op and call. Nothing in it is shared with other
// goroutines apart from the tracer, which locks.
type gen struct {
	idx     int
	c       *client
	tr      *tracer
	ops     []opRec
	calls   []callRec
	points  []float64 // pointDim values per kept point
	evicted []string
	cur     int
	start   time.Time
	opSpan  int64
	opT0    int64
}

// logSize is how many ops, calls and points a load goroutine will record.
type logSize struct{ ops, calls, points int }

// newGen sizes the op, call and point logs up front: growing them during
// the run would leave the process's peak memory at the mercy of when the
// last garbage collection happened relative to the last slice doubling.
func newGen(idx int, c *client, tr *tracer, n logSize) *gen {
	return &gen{
		idx: idx, c: c, tr: tr, cur: -1,
		ops:    make([]opRec, 0, n.ops),
		calls:  make([]callRec, 0, n.calls),
		points: make([]float64, 0, n.points*pointDim),
	}
}

// logBytes is the memory the gen's logs hold, so a result can state how
// much of the process's peak resident memory is the generator's.
func (g *gen) logBytes() int {
	return cap(g.ops)*int(unsafe.Sizeof(opRec{})) + cap(g.calls)*int(unsafe.Sizeof(callRec{})) + cap(g.points)*8
}

// keep stores a point and returns its handle.
func (g *gen) keep(p []float64) int32 {
	if len(p) != pointDim {
		return -1
	}
	g.points = append(g.points, p...)
	return int32(len(g.points)/pointDim - 1)
}

// point returns a kept point; nil for handle -1.
func (g *gen) point(h int32) []float64 {
	if h < 0 {
		return nil
	}
	return g.points[int(h)*pointDim : int(h+1)*pointDim]
}

// evictedID returns the ID an open reported evicting, or "".
func (g *gen) evictedID(c *callRec) string {
	if c.evict < 0 {
		return ""
	}
	return g.evicted[c.evict]
}

// begin opens a timed op.
func (g *gen) begin(kind string, n int) {
	g.cur = len(g.ops)
	g.ops = append(g.ops, opRec{kind: kind, n: n})
	if g.tr != nil {
		g.opSpan = g.tr.id()
		g.opT0 = g.tr.now()
	}
	g.start = time.Now()
}

// end closes the current op; err is the first failed call in it, if any.
func (g *gen) end(err error) {
	op := &g.ops[g.cur]
	op.end = time.Now()
	op.dur = op.end.Sub(g.start)
	op.err = err
	if g.tr != nil {
		g.tr.add(span{ID: g.opSpan, Op: opID(g.idx, g.cur), Name: "op", Start: g.opT0, End: g.tr.now(), Key: op.kind})
	}
	g.cur = -1
}

// call runs one session-API call, filling rec through f and recording it.
// In a traced run the call's span ID rides the context so the transport
// seam can name its parent.
func (g *gen) call(rec callRec, key string, f func(ctx context.Context, g *gen, rec *callRec) error) (callRec, error) {
	ctx := context.Background()
	var id, t0 int64
	if g.tr != nil {
		id = g.tr.id()
		ctx = context.WithValue(ctx, spanKey{}, id)
		t0 = g.tr.now()
	}
	start := time.Now()
	err := f(ctx, g, &rec)
	rec.dur = time.Since(start)
	rec.op = int32(g.cur)
	if err != nil {
		rec.flags |= fFailed
	}
	if g.tr != nil {
		parent := int64(0)
		if g.cur >= 0 {
			parent = g.opSpan
		}
		rec.span = id
		g.tr.add(span{ID: id, Parent: parent, Op: opID(g.idx, g.cur), Name: "client." + rec.kind.String(), Start: t0, End: g.tr.now(), Key: key})
	}
	g.calls = append(g.calls, rec)
	return rec, err
}

// abort records a failed untimed call (open, close) as a failed op of the
// given kind, so the failure counts against attempted ops.
func (g *gen) abort(kind string, err error) {
	g.ops = append(g.ops, opRec{kind: kind, err: err})
}

// opID numbers op k of load goroutine c uniquely across goroutines and
// above zero; -1 marks a call outside any op.
func opID(c, k int) int64 {
	if k < 0 {
		return -1
	}
	return int64(k+1)<<8 | int64(c)
}
