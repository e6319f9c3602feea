package sessiond

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// errStreamClientClosed fails calls issued after Close.
var errStreamClientClosed = errors.New("sessiond: stream client closed")

// StreamClient multiplexes session calls from any number of sessions over
// one binary stream connection per server (DESIGN.md §14). Every call runs
// through the owning edge.Client's Execute, so the retry/backoff/breaker
// machinery governs stream traffic exactly as it governs single-frame
// POSTs — a dead connection surfaces as a failed attempt, and the retry's
// next attempt transparently redials. Attach one to session clients with
// Client.SetStream; whoever builds it owns it and must Close it. Safe for
// concurrent use.
type StreamClient struct {
	ec *edge.Client

	// dialMu serializes dialing, so a burst of first calls (or of retries
	// after a drop) opens one stream, not one per caller.
	dialMu sync.Mutex //hbo:lockleaf single-flight dial: serializing the blocking dial is this mutex's entire job

	mu     sync.Mutex
	conn   *streamConn
	closed bool
}

// NewStreamClient builds a stream transport on top of an edge client. The
// edge client supplies the HTTP connection pool, base URL, per-attempt
// timeout, and the whole fault-tolerance stack.
func NewStreamClient(ec *edge.Client) (*StreamClient, error) {
	if ec == nil {
		return nil, fmt.Errorf("sessiond: nil edge client")
	}
	return &StreamClient{ec: ec}, nil
}

// Close tears down the live connection (the server sees EOF and ends the
// stream) and fails all future calls fast.
func (sc *StreamClient) Close() error {
	sc.mu.Lock()
	sc.closed = true
	cn := sc.conn
	sc.conn = nil
	sc.mu.Unlock()
	if cn != nil {
		cn.fail(errStreamClientClosed)
	}
	return nil
}

// streamCall is one session op in flight on either carrier: its request and
// response frames, plus the reply channel the stream multiplexer completes
// it on. Pooled; the channel is allocated once, and both frames keep their
// slice capacity across uses.
type streamCall struct {
	req  wire.Frame
	resp wire.Frame
	done chan error
}

var callPool = sync.Pool{New: func() any {
	return &streamCall{done: make(chan error, 1)}
}}

func getCall() *streamCall {
	c := callPool.Get().(*streamCall)
	// Drain a stale completion a previous abandoned use may have left.
	select {
	case <-c.done:
	default:
	}
	c.req.Reset()
	c.resp.Reset()
	return c
}

func putCall(c *streamCall) { callPool.Put(c) }

// streamConn is one live stream connection: a pipe feeding the request
// body, the response body feeding a reader goroutine, and the table of
// calls awaiting their response frame.
type streamConn struct {
	cancel context.CancelFunc // tears down the HTTP exchange
	body   io.ReadCloser      // response body: frames in
	pw     *io.PipeWriter     // request body: frames out

	wmu sync.Mutex
	fw  *wire.Writer

	mu      sync.Mutex
	err     error
	seq     uint64
	pending map[uint64]*streamCall
}

func (cn *streamConn) dead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err != nil
}

// fail poisons the connection: every waiting and future call gets err, the
// request pipe is broken (the server sees the stream end), and the HTTP
// exchange is cancelled. Idempotent; the first error wins.
func (cn *streamConn) fail(err error) {
	cn.mu.Lock()
	if cn.err != nil {
		cn.mu.Unlock()
		return
	}
	cn.err = err
	pend := cn.pending
	cn.pending = nil
	cn.mu.Unlock()
	_ = cn.pw.CloseWithError(err)
	_ = cn.body.Close()
	cn.cancel()
	for _, c := range pend {
		c.done <- err
	}
}

// readLoop demultiplexes response frames to their waiting calls by
// sequence number. Frames for abandoned calls are dropped. Any read or
// decode error — including a clean EOF, which mid-conversation means the
// server went away — poisons the connection; the callers' retry loops
// redial.
func (cn *streamConn) readLoop() {
	fr := wire.NewReader(cn.body)
	var f wire.Frame
	for {
		if err := fr.Next(&f); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			cn.fail(fmt.Errorf("sessiond: stream read: %w", err))
			return
		}
		cn.mu.Lock()
		c := cn.pending[f.Seq]
		delete(cn.pending, f.Seq)
		cn.mu.Unlock()
		if c == nil {
			continue
		}
		if f.Type == wire.TError {
			c.done <- errorFrame(&f)
			continue
		}
		c.resp.CopyFrom(&f)
		c.done <- nil
	}
}

// abandon detaches a call whose caller stopped waiting. If the call was
// still pending the reader can never touch it again and it is safe to
// reuse; if the reader already took it, the completion is consumed so the
// pooled call carries no stale state.
func (cn *streamConn) abandon(c *streamCall, seq uint64) {
	cn.mu.Lock()
	_, pending := cn.pending[seq]
	delete(cn.pending, seq)
	cn.mu.Unlock()
	if !pending {
		<-c.done
	}
}

// roundTrip sends one request frame and waits for its response frame. The
// response lands in c.resp. A context expiry while waiting abandons only
// this call; a stalled frame write poisons the whole connection (the pipe
// is a serialization point — if it is stuck, so is every other call).
func (cn *streamConn) roundTrip(ctx context.Context, c *streamCall) error {
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return err
	}
	cn.seq++
	seq := cn.seq
	c.req.Seq = seq
	cn.pending[seq] = c
	cn.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		cn.fail(fmt.Errorf("sessiond: stream write stalled: %w", context.Cause(ctx)))
	})
	cn.wmu.Lock()
	werr := cn.fw.WriteFrame(&c.req)
	cn.wmu.Unlock()
	stop()
	if werr != nil {
		cn.abandon(c, seq)
		cn.fail(fmt.Errorf("sessiond: stream write: %w", werr))
		return werr
	}
	select {
	case err := <-c.done:
		return err
	case <-ctx.Done():
		cn.abandon(c, seq)
		return ctx.Err()
	}
}

// getConn returns the live connection, dialing if there is none. A closed
// client fails Permanent, so the retry loop gives up at once.
func (sc *StreamClient) getConn(ctx context.Context) (*streamConn, error) {
	sc.dialMu.Lock()
	defer sc.dialMu.Unlock()
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, edge.Permanent(errStreamClientClosed)
	}
	if cn := sc.conn; cn != nil && !cn.dead() {
		sc.mu.Unlock()
		return cn, nil
	}
	sc.mu.Unlock()

	cn, err := sc.dial(ctx)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		cn.fail(errStreamClientClosed)
		return nil, edge.Permanent(errStreamClientClosed)
	}
	sc.conn = cn
	sc.mu.Unlock()
	return cn, nil
}

// dial opens the long-lived streaming exchange. ctx bounds only the dial —
// the established stream outlives the dialing call, living on a detached
// context until fail tears it down.
func (sc *StreamClient) dial(ctx context.Context) (*streamConn, error) {
	connCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	// If the dialing attempt dies before the exchange is established, kill
	// it; once Do returns the watchdog is detached.
	stop := context.AfterFunc(ctx, cancel)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(connCtx, http.MethodPost, sc.ec.BaseURL()+streamPath, pr)
	if err != nil {
		stop()
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", frameContentType)
	resp, err := sc.ec.HTTPClient().Do(req)
	if err != nil {
		stop()
		cancel()
		_ = pw.CloseWithError(err)
		return nil, fmt.Errorf("sessiond: stream dial: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		stop()
		cancel()
		_ = pw.Close()
		_ = resp.Body.Close()
		return nil, fmt.Errorf("sessiond: stream dial: server returned %s", resp.Status)
	}
	stop()
	cn := &streamConn{
		cancel:  cancel,
		body:    resp.Body,
		pw:      pw,
		fw:      wire.NewWriter(pw),
		pending: make(map[uint64]*streamCall),
	}
	go cn.readLoop()
	return cn, nil
}

// do runs one stream round trip under the edge client's full
// fault-tolerance stack. A connection lost mid-call is just a failed
// attempt: the retry redials through getConn, and the breaker sees stream
// and single-frame failures as one health signal.
func (sc *StreamClient) do(ctx context.Context, label string, c *streamCall) error {
	return sc.ec.Execute(ctx, label, func(ctx context.Context) error {
		actx, cancel := context.WithTimeout(ctx, sc.ec.AttemptTimeout())
		defer cancel()
		cn, err := sc.getConn(actx)
		if err != nil {
			return err
		}
		return cn.roundTrip(actx, c)
	})
}
