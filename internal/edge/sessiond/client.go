package sessiond

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
)

// The session-op route and its media type: every open/suggest/observe/close
// is one wire frame POSTed here, alone or on a multiplexed stream.
const (
	streamPath       = "/session/stream"
	frameContentType = "application/octet-stream"
)

// Client drives one server-side session through an edge.Client, inheriting
// its full fault-tolerance stack: per-attempt timeouts, retries that honor
// the admission controller's Retry-After hint, and the shared circuit
// breaker (sustained admission rejections open the circuit exactly like any
// other server failure burst). Not safe for concurrent use — one client is
// one MAR session, which issues its calls in order; that ordering is what
// makes the session's suggestion stream deterministic.
type Client struct {
	ec *edge.Client
	id string
	p  params

	// stream, when set, multiplexes the session-op frames over one shared
	// connection; nil POSTs each frame alone.
	stream *StreamClient

	// opened records that an Open succeeded, so the LOD path knows the
	// server holds the session before its first mesh fetch.
	opened   bool
	reopens  int
	restores int

	// Observability instruments; nil (no-op) unless SetObserver is called.
	metSuggestMS *obs.Histogram
	metReopens   *obs.Counter
}

// NewClient builds a session client. resources/rmin/seed/init fix the
// server-side session's parameters; init <= 0 means the paper's 5.
func NewClient(ec *edge.Client, id string, resources int, rmin float64, seed uint64, init int) (*Client, error) {
	if ec == nil {
		return nil, fmt.Errorf("sessiond: nil edge client")
	}
	if err := validID(id); err != nil {
		return nil, err
	}
	if init <= 0 {
		init = 5
	}
	p := params{resources: resources, rmin: rmin, seed: seed, init: init}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Client{ec: ec, id: id, p: p}, nil
}

// SetPolicy selects the server-side optimizer policy for this session (see
// internal/bo/policies); empty (or "gp-ei") keeps the paper's GP-EI
// default. Call before Open — the policy is part of the session's
// parameters, and changing it after the server created the session would
// rebuild it from scratch on the next open.
func (c *Client) SetPolicy(name string) error {
	p := c.p
	p.policy = policies.Canonical(name)
	if err := p.validate(); err != nil {
		return err
	}
	c.p = p
	return nil
}

// SetObserver attaches a metrics registry: a suggest round-trip latency
// histogram (the load generator's tail-latency source) and a re-admission
// counter. Passing nil detaches.
func (c *Client) SetObserver(reg *obs.Registry) {
	c.metReopens = reg.Counter("load.session_reopens")
	c.metSuggestMS = reg.Histogram("load.suggest_wall_ms", obs.LatencyBucketsMS)
}

// SetStream multiplexes the session ops (open/suggest/observe/close) over
// sc's one shared connection instead of POSTing each op's frame alone.
// Decimate stays a POST either way: its binary mesh payload is not frame
// traffic. The StreamClient may be shared across many session clients, and
// its owner closes it; both carriers send the same frames to the same
// server handler, so the choice never changes an answer. Passing nil
// detaches.
func (c *Client) SetStream(sc *StreamClient) { c.stream = sc }

// ID returns the session identifier.
func (c *Client) ID() string { return c.id }

// Reopens counts the re-admissions this client performed after server-side
// evictions.
func (c *Client) Reopens() int { return c.reopens }

// Restores counts how many of this client's opens the server satisfied from
// a durable snapshot instead of a fresh session (full replay). Always zero against a server without a session store.
func (c *Client) Restores() int { return c.restores }

// Available reports whether the underlying link would currently attempt
// work (circuit not open).
func (c *Client) Available() bool { return c.ec.Available() }

// OpenResponse reports the open outcome. Existing means the session was
// already live with identical parameters and was kept as-is; Restored means
// it was re-hydrated from a durable snapshot; Evicted names the LRU victim
// this open displaced ("" when the shard had room). Observations is the
// session's current database size — after a restore, the client replays
// only the history past this point instead of all of it.
type OpenResponse struct {
	ID           string
	Existing     bool
	Restored     bool
	Evicted      string
	Observations int
}

// Open creates (or idempotently re-finds) the server-side session. The
// response says whether the session was already live, was restored from a
// durable snapshot, and how many observations the server already holds —
// the caller's cue to replay only the unseen tail of its history.
func (c *Client) Open(ctx context.Context) (OpenResponse, error) {
	resp, err := c.open(ctx)
	if err != nil {
		return resp, err
	}
	c.opened = true
	if resp.Restored {
		c.restores++
	}
	return resp, nil
}

func (c *Client) open(ctx context.Context) (OpenResponse, error) {
	call := c.request(wire.TOpenReq)
	defer putCall(call)
	call.req.Resources = uint32(c.p.resources)
	call.req.RMin = c.p.rmin
	call.req.Seed = c.p.seed
	call.req.Init = uint32(c.p.init)
	if c.p.policy != "" {
		call.req.Flags |= wire.FlagPolicy
		call.req.Policy = append(call.req.Policy[:0], c.p.policy...)
	}
	if err := c.roundTrip(ctx, "session open", call, wire.TOpenResp); err != nil {
		return OpenResponse{}, err
	}
	r := &call.resp
	return OpenResponse{
		ID:           c.id,
		Existing:     r.Flags&wire.FlagExisting != 0,
		Restored:     r.Flags&wire.FlagRestored != 0,
		Evicted:      string(r.Evicted),
		Observations: int(r.Observations),
	}, nil
}

// Suggest returns the session's next configuration to evaluate. The
// returned point is the caller's to keep.
func (c *Client) Suggest(ctx context.Context) ([]float64, error) {
	if c.metSuggestMS == nil {
		return c.suggest(ctx)
	}
	start := time.Now()
	p, err := c.suggest(ctx)
	c.metSuggestMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return p, err
}

func (c *Client) suggest(ctx context.Context) ([]float64, error) {
	call := c.request(wire.TSuggestReq)
	defer putCall(call)
	if err := c.roundTrip(ctx, "session suggest", call, wire.TSuggestResp); err != nil {
		return nil, err
	}
	if len(call.resp.Point) != c.p.resources+1 {
		return nil, fmt.Errorf("sessiond: server returned %d-dim point, want %d", len(call.resp.Point), c.p.resources+1)
	}
	return append([]float64(nil), call.resp.Point...), nil
}

// ObserveAt records one measured (point, cost) pair into the session's GP
// history at an idempotency index: the 0-based database slot this
// observation belongs in (how many observations the server held when it was
// measured). A retried observe whose first send actually landed — its
// response lost to a drop, a truncation or a severed stream — is
// acknowledged rather than double-applied, on either carrier. An index past
// the server's next slot is a gap, rejected 422. An index the frame's u32
// slot cannot carry (a negative one, or 2³² and up) is refused with the
// same typed 422 before anything is sent, so it never wraps onto a low
// slot.
func (c *Client) ObserveAt(ctx context.Context, index int, point []float64, cost float64) error {
	if index < 0 || uint64(index) > math.MaxUint32 {
		return edge.NewStatusError(http.StatusUnprocessableEntity, fmt.Sprintf("sessiond: observe index %d outside the u32 slot range", index), 0)
	}
	call := c.request(wire.TObserveReq)
	defer putCall(call)
	call.req.Index = uint32(index)
	call.req.Cost = cost
	call.req.Point = append(call.req.Point[:0], point...)
	return c.roundTrip(ctx, "session observe", call, wire.TObserveResp)
}

// CloseSession tears the server-side session down. Closing a session the
// server no longer holds succeeds.
func (c *Client) CloseSession(ctx context.Context) error {
	call := c.request(wire.TCloseReq)
	defer putCall(call)
	return c.roundTrip(ctx, "session close", call, wire.TCloseResp)
}

// request takes a pooled call whose request frame is a t for this session;
// the caller fills the type's remaining fields and returns it with putCall.
func (c *Client) request(t wire.Type) *streamCall {
	call := getCall()
	call.req.Type = t
	call.req.ID = append(call.req.ID[:0], c.id...)
	return call
}

// roundTrip carries call.req to the server and leaves its response frame,
// which must be a want, in call.resp. With a stream attached the frame
// rides that multiplexed connection; otherwise it is the whole body of one
// POST to /session/stream, whose response must be exactly one frame. Both
// run under the edge client's retry/backoff/breaker stack, and an Error
// frame comes back as the typed status error a non-2xx response produces.
// op names the call in errors.
func (c *Client) roundTrip(ctx context.Context, op string, call *streamCall, want wire.Type) error {
	var err error
	if c.stream != nil {
		err = c.stream.do(ctx, op, call)
	} else {
		err = c.postFrame(ctx, call)
	}
	if err != nil {
		return err
	}
	if call.resp.Type != want {
		return fmt.Errorf("sessiond: server answered %s with a %v frame", op, call.resp.Type)
	}
	return nil
}

// postFrame sends call.req as a single-frame POST. The request body is
// encoded fresh: the HTTP transport may still hold it after a failed
// attempt returns, so it must not be pooled.
func (c *Client) postFrame(ctx context.Context, call *streamCall) error {
	body, err := wire.AppendFrame(nil, &call.req)
	if err != nil {
		return err
	}
	return c.ec.Post(ctx, streamPath, frameContentType, body, func(resp []byte) error {
		return decodeOneFrame(resp, &call.resp)
	})
}

// decodeOneFrame decodes a response body that must hold exactly one
// length-prefixed frame. body is edge.Client.Post's reused buffer, valid
// only during this call, so f's byte fields are copied out of it before
// returning. An Error frame decodes to its typed status error. Any other
// shape — an empty body (the server refused the request frame), a
// truncated or corrupted frame, trailing bytes — is a mangled response.
func decodeOneFrame(body []byte, f *wire.Frame) error {
	if len(body) < 4 {
		return fmt.Errorf("sessiond: %d-byte response holds no frame", len(body))
	}
	if n := binary.LittleEndian.Uint32(body); int64(n) != int64(len(body)-4) {
		return fmt.Errorf("sessiond: response of %d bytes is not one %d-byte frame", len(body)-4, n)
	}
	err := wire.DecodeFrame(body[4:], f)
	if err == nil && f.Type == wire.TError {
		err = errorFrame(f)
	}
	// Empty fields, the common case, clone without allocating.
	f.ID, f.Policy, f.Evicted, f.Msg = bytes.Clone(f.ID), bytes.Clone(f.Policy), bytes.Clone(f.Evicted), bytes.Clone(f.Msg)
	return err
}

// errorFrame maps a server's Error frame onto the typed error a non-2xx
// response produces, so StatusCode, Retry-After honoring and the
// eviction/readmit logic work the same on both carriers.
func errorFrame(f *wire.Frame) error {
	return edge.NewStatusError(int(f.Status), string(f.Msg), time.Duration(f.RetryAfterSec)*time.Second)
}

// Decimate fetches a decimated mesh through the session's server-side mesh
// cache. The binary payload is decoded and validated inside the retried
// attempt, so a corrupted or truncated body (CRC or length mismatch) is
// retried like any mangled response and never returned. The returned mesh
// is the caller's to mutate. fast must be false; the server answers a fast
// request 400.
func (c *Client) Decimate(ctx context.Context, object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	req, err := json.Marshal(DecimateRequest{ID: c.id, Object: object, Ratio: ratio, Fast: fast})
	if err != nil {
		return nil, err
	}
	var m *mesh.Mesh
	err = c.ec.Post(ctx, "/session/decimate", "application/json", req, func(body []byte) (err error) {
		m, err = wire.DecodeMesh(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// evicted reports whether err is the server telling us the session no
// longer exists (LRU eviction, restart).
func evicted(err error) bool {
	code, ok := edge.StatusCode(err)
	return ok && code == http.StatusNotFound
}

// Backend adapts the session client to core.BOBackend: one server session
// per activation, fed that activation's history. The runtime hands it the
// activation's full history every call, and the backend ships only the
// tail the server has not seen yet before asking for the next suggestion.
// A new activation number closes the previous activation's server session
// and opens a fresh one under the same seed, so no observation ever lands
// in an earlier activation's optimizer. When the server evicted the session
// mid-activation, the backend transparently re-admits: re-open, sync
// histories, and retry the suggestion once. With a durable store behind
// the server the re-open restores from snapshot, so the sync ships only the
// observations the snapshot missed — O(m) instead of the full O(n) replay,
// which remains the corrupt/missing-snapshot fallback (the session seed
// makes the rebuilt optimizer deterministic).
type Backend struct {
	c   *Client
	ctx context.Context

	// activation is the activation the server session serves (0: none yet).
	activation int
	// sent counts the observations the server session holds; −1 means the
	// session must be (re)opened to learn it.
	sent int
}

// NewBackend wraps a session client for use as a core.BOBackend. The
// context bounds every call the runtime makes through it.
func NewBackend(ctx context.Context, c *Client) *Backend {
	return &Backend{c: c, ctx: ctx, sent: -1}
}

// BONextPoint implements core.BOBackend. The first activation a Backend
// sees adopts whatever the server holds under the session ID (a warm
// restart's snapshot is a prefix of the client's history); every later
// activation starts from a closed session. A failed close fails the call —
// core proposes locally for that iteration — and the next call retries it.
func (b *Backend) BONextPoint(activation int, points [][]float64, costs []float64) ([]float64, error) {
	if len(points) != len(costs) {
		return nil, fmt.Errorf("sessiond: %d points vs %d costs", len(points), len(costs))
	}
	if activation != b.activation {
		if b.activation != 0 {
			if err := b.c.CloseSession(b.ctx); err != nil {
				return nil, err
			}
		}
		b.activation, b.sent = activation, -1
	}
	p, err := b.syncSuggest(points, costs)
	if evicted(err) {
		// No second-chance recursion: a re-eviction inside this retry
		// fails the call, and core's local fallback takes over.
		b.sent = -1
		p, err = b.syncSuggest(points, costs)
		if b.sent >= 0 { // the re-open succeeded
			b.c.reopens++
			b.c.metReopens.Inc()
		}
	}
	return p, err
}

// syncSuggest brings the server session up to the client's history and
// asks it for the next point. When sent is unknown it opens the session
// first: a restored snapshot already holds the first resp.Observations
// points, and a fresh session none, so only the tail is shipped. The slot
// index doubles as the idempotency index: a retry after a lost response
// cannot double-apply.
func (b *Backend) syncSuggest(points [][]float64, costs []float64) ([]float64, error) {
	if b.sent < 0 {
		resp, err := b.c.Open(b.ctx)
		if err != nil {
			return nil, err
		}
		if resp.Observations > len(points) {
			return nil, fmt.Errorf("sessiond: server session holds %d observations, client only %d", resp.Observations, len(points))
		}
		b.sent = resp.Observations
	}
	for b.sent < len(points) {
		if err := b.c.ObserveAt(b.ctx, b.sent, points[b.sent], costs[b.sent]); err != nil {
			return nil, err
		}
		b.sent++
	}
	return b.c.Suggest(b.ctx)
}

// Available lets core's degradation probe skip remote proposals while the
// link's circuit is open.
func (b *Backend) Available() bool { return b.c.Available() }

// LOD adapts the session client to render.LODProvider, binding a context
// and the quadric edge collapse path the paper's TD step uses.
type LOD struct {
	c   *Client
	ctx context.Context
}

// NewLOD wraps a session client as a level-of-detail provider.
func NewLOD(ctx context.Context, c *Client) *LOD { return &LOD{c: c, ctx: ctx} }

// Decimate implements render.LODProvider. A scene can fetch geometry
// before the Backend's first suggest opens the session, so it opens the
// session itself when the client never has. Re-admission after an eviction
// stays the Backend's job: an LOD-side re-open would recreate the session
// behind the Backend's back, and the Backend would then ship its history
// tail against the wrong server-side count.
func (l *LOD) Decimate(object string, ratio float64) (*mesh.Mesh, error) {
	if !l.c.opened {
		if _, err := l.c.Open(l.ctx); err != nil {
			return nil, err
		}
	}
	return l.c.Decimate(l.ctx, object, ratio, false)
}

// Available implements render.Availability.
func (l *LOD) Available() bool { return l.c.Available() }
