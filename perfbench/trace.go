package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/mesh"
)

// span is one traced interval. Times are nanoseconds since the tracer
// started. Parent 0 means none was known when the span was recorded; server
// spans recorded behind a seam that carries no request identity (the
// Decimator and the SessionStore) get their parent when the run ends. Op is
// the op ID of client spans; -1 outside any op, 0 until resolved for server
// spans. Replay spans time a layer's public functions on recorded inputs
// after the pass, so they sit outside the op timeline and carry no self
// time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"`
	Size   int    `json:"size,omitempty"` // bytes moved; GP size for bo replays
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps every span of one traced pass in memory.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// newTracer sizes the span log for about capacity spans up front, so the
// traced pass does not pay for (or hold twice) a growing slice.
func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }
func (t *tracer) id() int64  { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// replay records a replayed call of duration d as a child of the client
// call span it reproduces.
func (t *tracer) replay(name string, parent, op int64, d time.Duration, key string, size int) {
	end := t.now()
	t.add(span{ID: t.id(), Parent: parent, Op: op, Name: name, Start: end - int64(d), End: end, Key: key, Size: size, Replay: true})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries a client call's span ID in its request context.
type spanKey struct{}

// spanHeader carries the transport span ID to the server-side handler.
const spanHeader = "X-Perfbench-Span"

// streamPath is the long-lived binary stream route: its single round trip
// spans the whole run, so the seams pass it through untraced.
const streamPath = "/session/stream"

// tracedTransport is the client's http.RoundTripper seam.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == streamPath {
		return t.next.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(int64)
	s := span{ID: t.tr.id(), Parent: parent, Name: "http.roundtrip", Key: req.URL.Path, Start: t.tr.now()}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		s.End = t.tr.now()
		t.tr.add(s)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, s: s, tr: t.tr}
	return resp, nil
}

// countedBody ends its round-trip span when the caller closes the body,
// recording how many response bytes were read.
type countedBody struct {
	io.ReadCloser
	s    span
	tr   *tracer
	done bool
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Size += n
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.End = b.tr.now()
		b.tr.add(b.s)
	}
	return err
}

// tracedHandler is the server's http.Handler seam.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == streamPath {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	s := span{ID: h.tr.id(), Parent: parent, Name: "sessiond.handler", Key: r.URL.Path, Start: h.tr.now()}
	h.next.ServeHTTP(w, r)
	s.End = h.tr.now()
	h.tr.add(s)
}

// tracedDecimator is the service's Decimator seam (cache misses only).
type tracedDecimator struct {
	dec sessiond.Decimator
	tr  *tracer
}

func (d *tracedDecimator) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	s := span{ID: d.tr.id(), Name: "mesh.decimate", Key: meshKey(object, int(math.Round(ratio*50))), Start: d.tr.now()}
	m, err := d.dec.Decimate(object, ratio, fast)
	s.End = d.tr.now()
	d.tr.add(s)
	return m, err
}

// tracedStore is the service's SessionStore seam.
type tracedStore struct {
	sessiond.SessionStore
	tr *tracer
}

func (st *tracedStore) Put(id string, blob []byte) error {
	s := span{ID: st.tr.id(), Name: "snapstore.put", Key: id, Size: len(blob), Start: st.tr.now()}
	err := st.SessionStore.Put(id, blob)
	s.End = st.tr.now()
	st.tr.add(s)
	return err
}

func (st *tracedStore) Get(id string) ([]byte, bool, error) {
	s := span{ID: st.tr.id(), Name: "snapstore.get", Key: id, Start: st.tr.now()}
	blob, ok, err := st.SessionStore.Get(id)
	s.End = st.tr.now()
	s.Size = len(blob)
	st.tr.add(s)
	return blob, ok, err
}

// traceIndex links the pass's spans into trees. Span IDs are dense from 1,
// so the ID lookup and the child lists are flat arrays: a traced
// session-churn pass holds over a million spans.
type traceIndex struct {
	spans []span
	pos   []int32 // span ID -> index in spans, -1 for none
	first []int32 // children of spans[i] are kids[first[i]:first[i+1]]
	kids  []int32
}

func (ix *traceIndex) index(id int64) (int, bool) {
	if id <= 0 || id >= int64(len(ix.pos)) || ix.pos[id] < 0 {
		return 0, false
	}
	return int(ix.pos[id]), true
}

func (ix *traceIndex) children(i int) []int32 { return ix.kids[ix.first[i]:ix.first[i+1]] }

// buildChildren rebuilds the child lists from the spans' parents.
func (ix *traceIndex) buildChildren() {
	n := len(ix.spans)
	parent := make([]int32, n)
	first := make([]int32, n+1)
	for i, s := range ix.spans {
		parent[i] = -1
		if p, ok := ix.index(s.Parent); ok {
			parent[i] = int32(p)
			first[p+1]++
		}
	}
	for i := range n {
		first[i+1] += first[i]
	}
	kids := make([]int32, first[n])
	next := append([]int32(nil), first[:n]...)
	for i, p := range parent {
		if p >= 0 {
			kids[next[p]] = int32(i)
			next[p]++
		}
	}
	ix.first, ix.kids = first, kids
}

// link resolves the parents the Decimator and SessionStore seams could not
// know. A span's cause is the client call on the same key (session ID, or
// asset and ratio step) whose server handler contains it; failing that
// (the stream transport has no handler span per call) it is the latest
// call on the key that started before the span. It then propagates op IDs
// down the trees.
func link(spans []span) *traceIndex {
	var maxID int64
	for _, s := range spans {
		maxID = max(maxID, s.ID)
	}
	ix := &traceIndex{spans: spans, pos: make([]int32, maxID+1)}
	for i := range ix.pos {
		ix.pos[i] = -1
	}
	calls := map[string][]int32{}
	for i, s := range spans {
		ix.pos[s.ID] = int32(i)
		if strings.HasPrefix(s.Name, "client.") {
			calls[s.Key] = append(calls[s.Key], int32(i))
		}
	}
	for _, c := range calls {
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].Start < spans[c[b]].Start })
	}
	ix.buildChildren()
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || (s.Name != "mesh.decimate" && !strings.HasPrefix(s.Name, "snapstore.")) {
			continue
		}
		c := calls[s.Key]
		k := sort.Search(len(c), func(j int) bool { return spans[c[j]].Start > s.Start })
		if k == 0 {
			continue
		}
		// A snapshot save can outlast the call whose mutation caused it, so
		// the fallback is the latest call, not one that contains s.
		s.Parent = spans[c[k-1]].ID
	search:
		for j := k - 1; j >= 0; j-- {
			for _, rt := range ix.children(int(c[j])) {
				for _, h := range ix.children(int(rt)) {
					if hs := spans[h]; hs.Name == "sessiond.handler" && hs.Start <= s.Start && s.End <= hs.End {
						s.Parent = hs.ID
						break search
					}
				}
			}
		}
	}
	ix.buildChildren()
	for i := range spans {
		if spans[i].Op == 0 && spans[i].Parent != 0 {
			spans[i].Op = ix.opOf(i)
		}
	}
	return ix
}

func (ix *traceIndex) opOf(i int) int64 {
	for depth := 0; depth < 8; depth++ {
		s := ix.spans[i]
		if strings.HasPrefix(s.Name, "client.") || s.Name == "op" {
			return s.Op
		}
		p, ok := ix.index(s.Parent)
		if !ok {
			return -1
		}
		i = p
	}
	return -1
}

// selfTime is a span's duration minus the part of it its (non-replay)
// children cover.
func (ix *traceIndex) selfTime(i int) int64 {
	s := ix.spans[i]
	var iv [][2]int64
	for _, c := range ix.children(i) {
		cs := ix.spans[c]
		if cs.Replay {
			continue
		}
		lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, end := int64(0), int64(math.MinInt64)
	for _, v := range iv {
		if v[0] > end {
			covered += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			covered += v[1] - end
			end = v[1]
		}
	}
	return s.End - s.Start - covered
}

// layerOf names the layer a span's self time belongs to.
func layerOf(name string) string {
	switch {
	case name == "op":
		return "generator"
	case strings.HasPrefix(name, "client."):
		return "client"
	case name == "http.roundtrip":
		return "transport"
	case name == "sessiond.handler":
		return "handler"
	case name == "mesh.decimate":
		return "mesh"
	case strings.HasPrefix(name, "snapstore."):
		return "snapstore"
	}
	return ""
}

// traceLayers are the layers self time is reported for, in report order.
var traceLayers = []string{"generator", "client", "transport", "handler", "mesh", "snapstore"}
