package sessiond_test

import (
	"bytes"
	"io"
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

// fuzzRoutes are the POST routes FuzzSessionRequestDecode targets, indexed
// by the input's endpoint byte: the JSON decimate route and the frame route
// every session op travels.
var fuzzRoutes = []string{"/session/decimate", "/session/stream"}

// fuzzFrames encodes frames back to back, as one request body.
func fuzzFrames(tb testing.TB, frames ...wire.Frame) []byte {
	tb.Helper()
	var b []byte
	for i := range frames {
		var err error
		if b, err = wire.AppendFrame(b, &frames[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// fuzzOpen opens the session every fuzz input finds already open, so
// suggest, observe, close and decimate bodies reach past the session lookup.
var fuzzOpen = wire.Frame{Type: wire.TOpenReq, ID: []byte("fuzz"), Resources: 3, RMin: 0.1, Seed: 7, Init: 5}

// FuzzSessionRequestDecode throws arbitrary bodies at each session route's
// request decoding and validation. Each input runs against a fresh service
// holding one open session, so a failure reproduces from its own bytes. The
// service must never panic, must answer with a plausible HTTP status, and
// any 200 must carry a well-formed body — a mesh payload that decodes from
// /session/decimate, whole frames up to a clean EOF from /session/stream —
// whatever the request holds: truncated JSON or frames, flipped CRCs,
// out-of-range numbers, unknown sessions or objects.
func FuzzSessionRequestDecode(f *testing.F) {
	jsonSeeds := []string{
		`{"id":"fuzz","object":"fuzzy","ratio":0.5}`,
		`{"id":"fuzz","object":"fuzzy","ratio":0.1,"fast":true}`,
		`{"id":"fuzz","object":"missing","ratio":0.5}`,
		`{"id":"fuzz","object":"fuzzy","ratio":-1}`,
		`{"id":"ghost","object":"fuzzy","ratio":0.5}`,
		`{`,
		`null`,
		``,
	}
	for _, s := range jsonSeeds {
		f.Add(byte(0), []byte(s))
	}
	point := []float64{0.2, 0.3, 0.5, 0.6}
	frameSeeds := [][]wire.Frame{
		{{Type: wire.TOpenReq, ID: []byte("other"), Resources: 3, RMin: 0.1, Seed: 1}},
		{{Type: wire.TOpenReq, Flags: wire.FlagPolicy, ID: []byte("fuzz"), Resources: 3, RMin: 0.1, Seed: 7, Init: 5, Policy: []byte("gp-ei")}},
		{{Type: wire.TOpenReq, ID: []byte("x"), Resources: 99, RMin: 2, Flags: wire.FlagPolicy, Policy: []byte("nope")}},
		{{Type: wire.TSuggestReq, ID: []byte("fuzz")}},
		{{Type: wire.TSuggestReq, ID: []byte("ghost")}},
		{{Type: wire.TObserveReq, ID: []byte("fuzz"), Index: 0, Cost: 0.4, Point: point}},
		{{Type: wire.TObserveReq, ID: []byte("fuzz"), Index: 3, Cost: 0.4, Point: point}},
		{{Type: wire.TObserveReq, ID: []byte("fuzz"), Index: ^uint32(0), Cost: 1, Point: []float64{9, 9}}},
		{{Type: wire.TCloseReq, ID: []byte("fuzz")}},
		{{Type: wire.TSuggestResp, Point: point}},
		{
			{Type: wire.TSuggestReq, Seq: 1, ID: []byte("fuzz")},
			{Type: wire.TObserveReq, Seq: 2, ID: []byte("fuzz"), Index: 0, Cost: 0.4, Point: point},
			{Type: wire.TSuggestReq, Seq: 3, ID: []byte("fuzz")},
			{Type: wire.TCloseReq, Seq: 4, ID: []byte("fuzz")},
		},
	}
	for _, frames := range frameSeeds {
		f.Add(byte(1), fuzzFrames(f, frames...))
	}
	f.Add(byte(1), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		cfg := sessiond.DefaultConfig()
		cfg.Shards = 1
		svc, err := sessiond.New(cfg, fuzzCatalog())
		if err != nil {
			t.Fatal(err)
		}
		h := svc.Handler()
		if rec := post(h, "/session/stream", fuzzFrames(t, fuzzOpen)); rec.Code != http.StatusOK || !answeredWith(rec, wire.TOpenResp) {
			t.Fatalf("opening the fuzz session: status %d, body %x", rec.Code, rec.Body.Bytes())
		}
		path := fuzzRoutes[int(endpoint)%len(fuzzRoutes)]
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
		fr := wire.NewReader(bytes.NewReader(rec.Body.Bytes()))
		var out wire.Frame
		for {
			err := fr.Next(&out)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s answered 200 with a body that is not whole frames: %v (%x)", path, err, rec.Body.Bytes())
			}
		}
	})
}

// answeredWith reports whether rec's body is exactly one frame of type t.
func answeredWith(rec *httptest.ResponseRecorder, t wire.Type) bool {
	fr := wire.NewReader(bytes.NewReader(rec.Body.Bytes()))
	var f wire.Frame
	if fr.Next(&f) != nil || f.Type != t {
		return false
	}
	return fr.Next(&f) == io.EOF
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	contentType := "application/json"
	if path == "/session/stream" {
		contentType = "application/octet-stream"
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSessionRoutesRejectOversizeBody pins the body cap on the JSON decimate
// route: a request past 4 MiB must come back 413, not be buffered. The body
// is valid-prefix JSON (one giant string), so the decoder keeps reading
// until the cap trips rather than failing on the first byte. The frame
// route needs no cap: the wire codec bounds every frame.
func TestSessionRoutesRejectOversizeBody(t *testing.T) {
	_, ts := newDecimatorService(t, &stubDecimator{})
	body := `{"id":"` + strings.Repeat("x", (4<<20)+1024) + `"}`
	resp, err := http.Post(ts.URL+"/session/decimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("decimate: status = %d, want 413", resp.StatusCode)
	}
}
