package edge

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countDials wraps a transport's dialer with an atomic counter, keeping
// everything else about the transport identical.
func countDials(t *http.Transport, n *atomic.Int64) {
	base := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		return base(ctx, network, addr)
	}
}

// runDialLoad drives sessions×calls concurrent POSTs through a client built
// on the given transport and returns how many TCP dials that cost.
func runDialLoad(t *testing.T, transport *http.Transport, sessions, calls int) int64 {
	t.Helper()
	var dials atomic.Int64
	countDials(transport, &dials)
	// The handler holds each response until the whole wave has arrived, so
	// every session holds its own connection at once. Otherwise a
	// connection finishing early can be handed to a request that has
	// already started dialing, and that dial lands in the pool as a spare.
	var mu sync.Mutex
	arrived, release := 0, make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		wave := release
		if arrived++; arrived == sessions {
			close(release)
			arrived, release = 0, make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-wave:
		case <-r.Context().Done():
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	cfg := DefaultClientConfig()
	cfg.Transport = transport
	c, err := NewClientWithConfig(ts.URL, 4, cfg)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	// Waves, not free-running loops: all sessions fire one call, then the
	// connections sit idle until the next wave — the load generator's real
	// cadence (every client computes between suggests). An undersized idle
	// pool evicts most connections at each barrier and redials next wave.
	for k := 0; k < calls; k++ {
		// Post returns once the body is read, but the transport's read
		// loop hands the connection back to the idle pool a moment later.
		// The barrier waits for every call's PutIdleConn (nil when pooled,
		// an error when the pool turned it away), so the next wave never
		// dials just because it raced a connection on its way back.
		returned := make(chan struct{}, sessions)
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			PutIdleConn: func(error) {
				select {
				case returned <- struct{}{}:
				default: // a retried call's extra return; the barrier needs only one per call
				}
			},
		})
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp struct{}
				if err := postJSON(ctx, c, "/echo", struct{}{}, &resp); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("post (wave %d): %v", k, err)
		}
		deadline := time.After(10 * time.Second)
		for i := 0; i < sessions; i++ {
			select {
			case <-returned:
			case <-deadline:
				t.Fatalf("wave %d: only %d of %d connections came back to the transport", k, i, sessions)
			}
		}
	}
	transport.CloseIdleConnections()
	return dials.Load()
}

// TestPooledTransportDialCount is the regression test for the keep-alive
// pool: 32 concurrent sessions issuing 20 requests each must be served from
// at most one connection per session. The stdlib default transport
// (MaxIdleConnsPerHost=2) drops all but two idle conns after every burst
// and redials most requests — the bug this pins down is the client
// accidentally riding that default again.
func TestPooledTransportDialCount(t *testing.T) {
	const sessions, calls = 32, 20
	pooled := runDialLoad(t, NewPooledTransport(DefaultClientConfig().MaxIdleConnsPerHost), sessions, calls)
	if pooled > sessions {
		t.Errorf("pooled transport dialed %d times for %d concurrent sessions, want <= %d",
			pooled, sessions, sessions)
	}
	stdlib := http.DefaultTransport.(*http.Transport).Clone() // MaxIdleConnsPerHost 0 -> stdlib default 2
	unpooled := runDialLoad(t, stdlib, sessions, calls)
	// Not asserting an exact count — scheduling decides how badly the default
	// pool thrashes — but it must be visibly worse than one dial per session,
	// or this test would pass vacuously on a server that kept nothing alive.
	if unpooled <= pooled {
		t.Errorf("stdlib-default transport dialed %d times vs pooled %d; expected the default pool to thrash",
			unpooled, pooled)
	}
	t.Logf("dials: pooled=%d stdlib-default=%d (%d sessions x %d calls)", pooled, unpooled, sessions, calls)
}
