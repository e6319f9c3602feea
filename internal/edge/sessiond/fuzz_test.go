package sessiond_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/render"
)

// fuzzCatalog is the decimation catalog shared by every fuzz input; it is
// tiny so accidental valid decimate requests stay cheap.
var fuzzCatalog = sync.OnceValue(func() *edge.Server {
	srv, err := edge.NewServer([]render.ObjectSpec{
		{Name: "fuzzy", MaxTriangles: 500, Shape: render.ShapeBlob, ShapeSeed: 7, Roughness: 0.3, DistExp: 1},
	})
	if err != nil {
		panic(err)
	}
	return srv
})

// sessionRoutes are the JSON POST routes FuzzSessionRequestDecode targets,
// indexed by the input's endpoint byte.
var sessionRoutes = []string{"/session/open", "/session/suggest", "/session/observe", "/session/close", "/session/decimate"}

// fuzzOpen is the session every fuzz input finds already open, so suggest,
// observe and decimate bodies reach past the session lookup.
const fuzzOpen = `{"id":"fuzz","resources":3,"rmin":0.1,"seed":7,"init":5}`

// FuzzSessionRequestDecode throws arbitrary bodies at each session route's
// request decoding and validation. Each input runs against a fresh service
// holding one open session, so a failure reproduces from its own bytes. The
// service must never panic, must answer with a plausible HTTP status, and
// any 200 must carry a well-formed body — a mesh payload that decodes from
// /session/decimate, a JSON document from every other route — whatever the
// request holds: truncated JSON, out-of-range numbers, unknown sessions or
// objects.
func FuzzSessionRequestDecode(f *testing.F) {
	seeds := []struct {
		endpoint byte
		body     string
	}{
		{0, `{"id":"other","resources":3,"rmin":0.1,"seed":1}`},
		{0, `{"id":"fuzz","resources":3,"rmin":0.1,"seed":7,"init":5,"policy":"gp-ei"}`},
		{0, `{"id":"","resources":3,"rmin":0.1}`},
		{0, `{"id":"x","resources":-1,"rmin":2,"policy":"nope"}`},
		{1, `{"id":"fuzz"}`},
		{1, `{"id":"ghost"}`},
		{2, `{"id":"fuzz","point":[0.2,0.3,0.5,0.6],"cost":0.4}`},
		{2, `{"id":"fuzz","point":[9,9],"cost":1e999}`},
		{2, `{"id":"fuzz","point":null,"cost":0}`},
		{3, `{"id":"fuzz"}`},
		{4, `{"id":"fuzz","object":"fuzzy","ratio":0.5}`},
		{4, `{"id":"fuzz","object":"fuzzy","ratio":0.1,"fast":true}`},
		{4, `{"id":"fuzz","object":"missing","ratio":0.5}`},
		{4, `{"id":"fuzz","object":"fuzzy","ratio":-1}`},
		{0, `{`},
		{1, `null`},
		{2, `[]`},
		{5, ``},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		cfg := sessiond.DefaultConfig()
		cfg.Shards = 1
		svc, err := sessiond.New(cfg, fuzzCatalog())
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		h := svc.Handler()
		if code := post(h, "/session/open", []byte(fuzzOpen)).Code; code != http.StatusOK {
			t.Fatalf("opening the fuzz session: status %d", code)
		}
		path := sessionRoutes[int(endpoint)%len(sessionRoutes)]
		rec := post(h, path, body)
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("%s returned impossible status %d", path, rec.Code)
		}
		if rec.Code != http.StatusOK {
			return
		}
		if path == "/session/decimate" {
			if _, err := wire.DecodeMesh(rec.Body.Bytes()); err != nil {
				t.Fatalf("%s answered 200 with an undecodable mesh payload: %v", path, err)
			}
			return
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s answered 200 with malformed JSON %q", path, rec.Body.Bytes())
		}
	})
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSessionRoutesRejectOversizeBody pins the body cap: a request past 4
// MiB must come back 413 from every JSON route, not be buffered. The body
// is valid-prefix JSON (one giant string), so the decoder keeps reading
// until the cap trips rather than failing on the first byte.
func TestSessionRoutesRejectOversizeBody(t *testing.T) {
	_, ts := newDecimatorService(t, &stubDecimator{})
	body := `{"id":"` + strings.Repeat("x", (4<<20)+1024) + `"}`
	for _, path := range sessionRoutes {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", path, resp.StatusCode)
		}
	}
}
