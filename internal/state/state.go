// Package state persists HBO's durable artifacts as JSON: the one-time
// offline profile (the paper's priority queue P and expected latencies τ_e)
// and the §VI lookup table of remembered solutions. Persisting them is what
// makes the paper's "one-time operation, little inconvenience to the user"
// story real across app restarts.
package state

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/soc"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// profileDoc is the on-disk profile format.
type profileDoc struct {
	Version  int                `json:"version"`
	Device   string             `json:"device"`
	Entries  []profileEntry     `json:"entries"`
	Expected map[string]float64 `json:"expected_ms"`
	Best     map[string]string  `json:"best_resource"`
}

type profileEntry struct {
	Task      string  `json:"task"`
	Resource  string  `json:"resource"`
	LatencyMS float64 `json:"latency_ms"`
}

const profileVersion = 1

// SaveProfile writes the profile as JSON, tagged with the device it was
// measured on (profiles are device-specific, like the paper's).
func SaveProfile(w io.Writer, device string, p *soc.Profile) error {
	doc := profileDoc{
		Version:  profileVersion,
		Device:   device,
		Expected: p.Expected,
		Best:     make(map[string]string, len(p.Best)),
	}
	for id, r := range p.Best {
		doc.Best[id] = r.String()
	}
	for _, e := range p.Entries {
		doc.Entries = append(doc.Entries, profileEntry{
			Task: e.TaskID, Resource: e.Resource.String(), LatencyMS: e.LatencyMS,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadProfile reads a profile written by SaveProfile, returning it and the
// device name it was measured on.
func LoadProfile(r io.Reader) (*soc.Profile, string, error) {
	var doc profileDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, "", fmt.Errorf("state: decoding profile: %w", err)
	}
	if doc.Version != profileVersion {
		return nil, "", fmt.Errorf("state: unsupported profile version %d", doc.Version)
	}
	p := &soc.Profile{
		Expected: doc.Expected,
		Best:     make(map[string]tasks.Resource, len(doc.Best)),
	}
	if p.Expected == nil {
		p.Expected = map[string]float64{}
	}
	for id, name := range doc.Best {
		r, err := parseResource(name)
		if err != nil {
			return nil, "", err
		}
		p.Best[id] = r
	}
	for _, e := range doc.Entries {
		r, err := parseResource(e.Resource)
		if err != nil {
			return nil, "", err
		}
		if e.LatencyMS <= 0 {
			return nil, "", fmt.Errorf("state: entry %s/%s has non-positive latency", e.Task, e.Resource)
		}
		p.Entries = append(p.Entries, soc.ProfileEntry{
			TaskID: e.Task, Resource: r, LatencyMS: e.LatencyMS,
		})
	}
	// Defend the priority-queue invariant regardless of file ordering.
	sort.SliceStable(p.Entries, func(i, j int) bool {
		return p.Entries[i].LatencyMS < p.Entries[j].LatencyMS
	})
	return p, doc.Device, nil
}

func parseResource(name string) (tasks.Resource, error) {
	for _, r := range tasks.Resources() {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("state: unknown resource %q", name)
}

// lookupDoc is the on-disk lookup-table format; map keys are flattened into
// rows because JSON objects need string keys.
type lookupDoc struct {
	Version int         `json:"version"`
	Rows    []lookupRow `json:"rows"`
}

type lookupRow struct {
	Taskset    string    `json:"taskset"`
	TriBucket  int       `json:"tri_bucket"`
	DistBucket int       `json:"dist_bucket"`
	Objects    int       `json:"objects"`
	Point      []float64 `json:"point"`
}

const lookupVersion = 1

// SaveLookup writes the lookup table as JSON, rows sorted for stable output.
func SaveLookup(w io.Writer, t *core.LookupTable) error {
	doc := lookupDoc{Version: lookupVersion}
	for k, e := range t.Entries() {
		doc.Rows = append(doc.Rows, lookupRow{
			Taskset: k.Taskset, TriBucket: k.TriBucket, DistBucket: k.DistBucket,
			Objects: k.Objects, Point: e.Point,
		})
	}
	sort.Slice(doc.Rows, func(i, j int) bool {
		a, b := doc.Rows[i], doc.Rows[j]
		if a.Taskset != b.Taskset {
			return a.Taskset < b.Taskset
		}
		if a.TriBucket != b.TriBucket {
			return a.TriBucket < b.TriBucket
		}
		if a.DistBucket != b.DistBucket {
			return a.DistBucket < b.DistBucket
		}
		return a.Objects < b.Objects
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadLookup reads a lookup table written by SaveLookup.
func LoadLookup(r io.Reader) (*core.LookupTable, error) {
	var doc lookupDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("state: decoding lookup table: %w", err)
	}
	if doc.Version != lookupVersion {
		return nil, fmt.Errorf("state: unsupported lookup version %d", doc.Version)
	}
	t := core.NewLookupTable()
	for _, row := range doc.Rows {
		if len(row.Point) == 0 {
			return nil, fmt.Errorf("state: lookup row for %s has empty point", row.Taskset)
		}
		t.Store(core.EnvironmentKey{
			Taskset: row.Taskset, TriBucket: row.TriBucket,
			DistBucket: row.DistBucket, Objects: row.Objects,
		}, core.LookupEntry{Point: row.Point})
	}
	return t, nil
}
