package sessiond

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
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

	// stream, when set, carries open/suggest/observe/close as binary frames
	// over one multiplexed connection; nil (and any server that turns out
	// not to speak the protocol) means the JSON POST routes.
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
	if reg != nil {
		c.metSuggestMS = reg.Histogram("load.suggest_wall_ms", obs.LatencyBucketsMS)
	} else {
		c.metSuggestMS = nil
	}
}

// SetStream attaches a stream transport for the session calls
// (open/suggest/observe/close — decimate stays on JSON, mesh payloads are
// not frame traffic). The StreamClient may be shared across many session
// clients; it multiplexes them over one connection. Against a server
// without the stream route, every call transparently falls back to the
// JSON path after one cheap probe. Passing nil detaches.
func (c *Client) SetStream(sc *StreamClient) { c.stream = sc }

// useJSON reports whether err is the stream transport saying "this server
// does not speak the protocol" — the cue to serve the call over JSON.
func useJSON(err error) bool { return errors.Is(err, ErrStreamUnsupported) }

// ID returns the session identifier.
func (c *Client) ID() string { return c.id }

// Reopens counts the re-admissions this client performed after server-side
// evictions.
func (c *Client) Reopens() int { return c.reopens }

// Restores counts how many of this client's opens the server satisfied from
// a durable snapshot (O(m) restore) instead of a fresh session (full
// replay). Always zero against a server without a session store.
func (c *Client) Restores() int { return c.restores }

// Available reports whether the underlying link would currently attempt
// work (circuit not open).
func (c *Client) Available() bool { return c.ec.Available() }

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
	req := OpenRequest{ID: c.id, Resources: c.p.resources, RMin: c.p.rmin, Seed: c.p.seed, Init: c.p.init, Policy: c.p.policy}
	if c.stream != nil {
		resp, err := c.stream.Open(ctx, req)
		if err == nil || !useJSON(err) {
			return resp, err
		}
	}
	var resp OpenResponse
	if err := c.ec.PostJSON(ctx, "/session/open", req, &resp); err != nil {
		return OpenResponse{}, err
	}
	return resp, nil
}

// Suggest returns the session's next configuration to evaluate.
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
	var resp SuggestResponse
	if c.stream != nil {
		sresp, err := c.stream.Suggest(ctx, c.id)
		if err == nil {
			resp = sresp
		} else if !useJSON(err) {
			return nil, err
		}
	}
	if resp.Point == nil {
		if err := c.ec.PostJSON(ctx, "/session/suggest", SuggestRequest{ID: c.id}, &resp); err != nil {
			return nil, err
		}
	}
	if len(resp.Point) != c.p.resources+1 {
		return nil, fmt.Errorf("sessiond: server returned %d-dim point, want %d", len(resp.Point), c.p.resources+1)
	}
	return resp.Point, nil
}

// Observe records one measured (point, cost) pair into the session's GP
// history, appending unconditionally (no idempotency index).
func (c *Client) Observe(ctx context.Context, point []float64, cost float64) error {
	return c.ObserveAt(ctx, -1, point, cost)
}

// ObserveAt is Observe with an idempotency index: the 0-based database slot
// this observation belongs in (how many observations the server held when
// it was measured). Over the stream transport a retried observe whose
// first send actually landed is acknowledged rather than double-applied;
// the JSON path has no index field and appends unconditionally, as it
// always has. index < 0 means "always append" on both transports.
func (c *Client) ObserveAt(ctx context.Context, index int, point []float64, cost float64) error {
	if c.stream != nil {
		_, err := c.stream.Observe(ctx, c.id, index, point, cost)
		if err == nil || !useJSON(err) {
			return err
		}
	}
	var resp ObserveResponse
	return c.ec.PostJSON(ctx, "/session/observe", ObserveRequest{ID: c.id, Point: point, Cost: cost}, &resp)
}

// CloseSession tears the server-side session down.
func (c *Client) CloseSession(ctx context.Context) error {
	if c.stream != nil {
		_, err := c.stream.CloseSession(ctx, c.id)
		if err == nil || !useJSON(err) {
			return err
		}
	}
	var resp CloseResponse
	return c.ec.PostJSON(ctx, "/session/close", CloseRequest{ID: c.id}, &resp)
}

// Decimate fetches a decimated mesh through the session's server-side mesh
// cache. The returned mesh is the caller's to mutate.
func (c *Client) Decimate(ctx context.Context, object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	var resp DecimateResponse
	if err := c.ec.PostJSON(ctx, "/session/decimate", DecimateRequest{ID: c.id, Object: object, Ratio: ratio, Fast: fast}, &resp); err != nil {
		return nil, err
	}
	m := resp.Mesh.ToMesh()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("sessiond: server returned invalid mesh: %w", err)
	}
	return m, nil
}

// evicted reports whether err is the server telling us the session no
// longer exists (LRU eviction, restart).
func evicted(err error) bool {
	code, ok := edge.StatusCode(err)
	return ok && code == http.StatusNotFound
}

// Backend adapts the session client to core.BOBackend: the runtime hands it
// the full observation history every call, and the backend ships only the
// tail the server has not seen yet before asking for the next suggestion.
// When the server evicted the session mid-run, the backend transparently
// re-admits: re-open, sync histories, and retry the suggestion once. With a
// durable store behind the server the re-open restores from snapshot, so
// the sync ships only the observations the snapshot missed — O(m) instead
// of the full O(n) replay, which remains the corrupt/missing-snapshot
// fallback (the session seed makes the rebuilt optimizer deterministic).
type Backend struct {
	c   *Client
	ctx context.Context

	opened bool
	sent   int
}

// NewBackend wraps a session client for use as a core.BOBackend. The
// context bounds every call the runtime makes through it.
func NewBackend(ctx context.Context, c *Client) *Backend {
	return &Backend{c: c, ctx: ctx}
}

// BONextPoint implements core.BOBackend.
func (b *Backend) BONextPoint(resources int, rmin float64, seed uint64, points [][]float64, costs []float64) ([]float64, error) {
	if len(points) != len(costs) {
		return nil, fmt.Errorf("sessiond: %d points vs %d costs", len(points), len(costs))
	}
	if resources != b.c.p.resources || math.Float64bits(rmin) != math.Float64bits(b.c.p.rmin) {
		return nil, fmt.Errorf("sessiond: backend opened for %d resources (rmin %v), asked for %d (rmin %v)",
			b.c.p.resources, b.c.p.rmin, resources, rmin)
	}
	if !b.opened {
		resp, err := b.c.Open(b.ctx)
		if err != nil {
			return nil, err
		}
		if resp.Observations > len(points) {
			return nil, fmt.Errorf("sessiond: server session holds %d observations, client only %d", resp.Observations, len(points))
		}
		b.opened = true
		// A warm-restarted (or still-live) server session already holds a
		// prefix of our history; only the tail needs shipping.
		b.sent = resp.Observations
	}
	for b.sent < len(points) {
		// The slot index doubles as the idempotency index: over the stream
		// transport a retry after a lost response cannot double-apply.
		if err := b.c.ObserveAt(b.ctx, b.sent, points[b.sent], costs[b.sent]); err != nil {
			if evicted(err) {
				return b.readmit(points, costs)
			}
			return nil, err
		}
		b.sent++
	}
	p, err := b.c.Suggest(b.ctx)
	if err != nil {
		if evicted(err) {
			return b.readmit(points, costs)
		}
		return nil, err
	}
	return p, nil
}

// Available lets core's degradation probe skip remote proposals while the
// link's circuit is open.
func (b *Backend) Available() bool { return b.c.Available() }

// readmit re-opens an evicted session and syncs the observation history
// before retrying the suggestion. When the re-open restored a snapshot the
// server already holds the first resp.Observations points, so only the tail
// is shipped; a missing or corrupt snapshot reports zero observations and
// degrades to the full-history replay this method has always been. No
// second-chance recursion: a re-eviction inside the sync fails the call,
// and core's local fallback takes over for this iteration.
func (b *Backend) readmit(points [][]float64, costs []float64) ([]float64, error) {
	resp, err := b.c.Open(b.ctx)
	if err != nil {
		return nil, err
	}
	if resp.Observations > len(points) {
		return nil, fmt.Errorf("sessiond: restored session holds %d observations, client only %d", resp.Observations, len(points))
	}
	b.c.reopens++
	b.c.metReopens.Inc()
	for i := resp.Observations; i < len(points); i++ {
		if err := b.c.ObserveAt(b.ctx, i, points[i], costs[i]); err != nil {
			return nil, fmt.Errorf("sessiond: replaying history after eviction: %w", err)
		}
	}
	b.sent = len(points)
	return b.c.Suggest(b.ctx)
}

// LOD adapts the session client to render.LODProvider, binding a context
// and the precise (non-fast) decimation path the paper's TD step uses.
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
