package state

import (
	"bytes"
	"strings"
	"testing"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/soc"
	"github.com/mar-hbo/hbo/internal/tasks"
)

func TestProfileRoundTrip(t *testing.T) {
	p, err := soc.ProfileTaskset(soc.Pixel7(), tasks.CF1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveProfile(&buf, "Google Pixel 7", p); err != nil {
		t.Fatal(err)
	}
	back, device, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if device != "Google Pixel 7" {
		t.Fatalf("device = %q", device)
	}
	if len(back.Entries) != len(p.Entries) {
		t.Fatalf("entries %d -> %d", len(p.Entries), len(back.Entries))
	}
	for i := range p.Entries {
		if back.Entries[i] != p.Entries[i] {
			t.Fatalf("entry %d changed: %+v -> %+v", i, p.Entries[i], back.Entries[i])
		}
	}
	for id, v := range p.Expected {
		if back.Expected[id] != v {
			t.Fatalf("expected[%s] %v -> %v", id, v, back.Expected[id])
		}
	}
	for id, r := range p.Best {
		if back.Best[id] != r {
			t.Fatalf("best[%s] %v -> %v", id, r, back.Best[id])
		}
	}
}

func TestLoadProfileSortsEntries(t *testing.T) {
	// Hand-built file with out-of-order entries: loading must restore the
	// priority-queue invariant.
	doc := `{"version":1,"device":"x","entries":[
		{"task":"a","resource":"CPU","latency_ms":30},
		{"task":"b","resource":"GPU","latency_ms":10}
	],"expected_ms":{"a":30,"b":10},"best_resource":{"a":"CPU","b":"GPU"}}`
	p, _, err := LoadProfile(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries[0].TaskID != "b" {
		t.Fatalf("entries not sorted by latency: %+v", p.Entries)
	}
}

func TestLoadProfileErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not json",
		"bad version":  `{"version":9}`,
		"bad resource": `{"version":1,"entries":[{"task":"a","resource":"TPU","latency_ms":5}]}`,
		"bad latency":  `{"version":1,"entries":[{"task":"a","resource":"CPU","latency_ms":0}]}`,
		"bad best":     `{"version":1,"best_resource":{"a":"XPU"}}`,
	}
	for name, doc := range cases {
		if _, _, err := LoadProfile(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLookupRoundTrip(t *testing.T) {
	tab := core.NewLookupTable()
	k1 := core.EnvironmentKey{Taskset: "CF1", TriBucket: 20, DistBucket: 3, Objects: 9}
	k2 := core.EnvironmentKey{Taskset: "CF2", TriBucket: 14, DistBucket: 2, Objects: 7}
	tab.Store(k1, core.LookupEntry{Point: []float64{0.4, 0.1, 0.5, 0.72}})
	tab.Store(k2, core.LookupEntry{Point: []float64{0.0, 0.3, 0.7, 1.0}})

	var buf bytes.Buffer
	if err := SaveLookup(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLookup(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d rows", back.Len())
	}
	e, ok := back.Find(k1)
	if !ok {
		t.Fatal("k1 missing after round trip")
	}
	if e.Point[0] != 0.4 || e.Point[3] != 0.72 {
		t.Fatalf("k1 entry changed: %+v", e)
	}

	// Files written while entries still carried the activation's reward
	// keep loading: the field is ignored, the point is kept.
	old := `{"version":1,"rows":[{"taskset":"CF1","tri_bucket":20,"dist_bucket":3,"objects":9,` +
		`"point":[0.4,0.1,0.5,0.72],"reward":0.3}]}`
	back, err = LoadLookup(strings.NewReader(old))
	if err != nil {
		t.Fatalf("lookup file with a reward field: %v", err)
	}
	if e, ok := back.Find(k1); !ok || e.Point[3] != 0.72 {
		t.Fatalf("lookup file with a reward field: entry %+v ok=%v", e, ok)
	}
}

func TestSaveLookupDeterministic(t *testing.T) {
	tab := core.NewLookupTable()
	for i := 0; i < 8; i++ {
		tab.Store(core.EnvironmentKey{Taskset: "CF1", TriBucket: i, Objects: i},
			core.LookupEntry{Point: []float64{1, 0, 0, float64(i) / 8}})
	}
	var a, b bytes.Buffer
	if err := SaveLookup(&a, tab); err != nil {
		t.Fatal(err)
	}
	if err := SaveLookup(&b, tab); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("lookup serialization not deterministic")
	}
}

func TestLoadLookupErrors(t *testing.T) {
	if _, err := LoadLookup(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadLookup(strings.NewReader(`{"version":5}`)); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := LoadLookup(strings.NewReader(`{"version":1,"rows":[{"taskset":"x","point":[]}]}`)); err == nil {
		t.Fatal("empty point accepted")
	}
}
