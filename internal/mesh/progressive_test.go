package mesh_test

import (
	"math"
	"testing"

	"github.com/mar-hbo/hbo/internal/mesh"
)

// TestProgressiveMatchesDecimate pins the progressive log to the reference
// decimator: on every golden mesh, At gives Decimate's exact output at all 50
// ratio steps and at the edge targets 0, count-1, count and above.
func TestProgressiveMatchesDecimate(t *testing.T) {
	for _, g := range goldenMeshes(t) {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			progressiveMatches(t, g)
		})
	}
}

func progressiveMatches(t *testing.T, g goldenMesh) {
	p, err := mesh.NewProgressive(g.m)
	if err != nil {
		t.Fatal(err)
	}
	n := g.m.TriangleCount()
	targets := []int{0, n - 1, n, n + 1, 2 * n}
	for step := 1; step <= goldenSteps; step++ {
		target, err := mesh.RatioTarget(float64(step)/goldenSteps, n)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target)
	}
	for _, target := range targets {
		want, err := mesh.Decimate(g.m, target)
		if err != nil {
			t.Fatalf("target %d: Decimate: %v", target, err)
		}
		got, err := p.At(target)
		if err != nil {
			t.Fatalf("target %d: At: %v", target, err)
		}
		if meshDigest(got) != meshDigest(want) {
			t.Fatalf("target %d: At gives %d triangles (digest %016x), Decimate %d (%016x)",
				target, got.TriangleCount(), meshDigest(got), want.TriangleCount(), meshDigest(want))
		}
	}
}

func TestProgressiveErrors(t *testing.T) {
	m, err := mesh.Box(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mesh.NewProgressive(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.At(-1); err == nil {
		t.Fatal("negative target accepted")
	}
	bad := &mesh.Mesh{Vertices: m.Vertices, Triangles: []mesh.Triangle{{0, 0, 1}}}
	if _, err := mesh.NewProgressive(bad); err == nil {
		t.Fatal("degenerate mesh accepted")
	}
	if _, err := mesh.RatioTarget(math.NaN(), 10); err == nil {
		t.Fatal("NaN ratio accepted")
	}
}

// FuzzProgressiveAt draws a blob size, shape seed and target and requires At
// to reproduce Decimate bit for bit.
func FuzzProgressiveAt(f *testing.F) {
	f.Add(uint16(300), uint64(1), uint16(150))
	f.Add(uint16(64), uint64(7), uint16(0))
	f.Add(uint16(900), uint64(3), uint16(899))
	f.Fuzz(func(t *testing.T, size uint16, seed uint64, target uint16) {
		m, err := mesh.Blob(int(size%1024)+8, seed, 0.3)
		if err != nil {
			t.Skip(err)
		}
		p, err := mesh.NewProgressive(m)
		if err != nil {
			t.Fatal(err)
		}
		tgt := int(target) % (m.TriangleCount() + 2)
		want, err := mesh.Decimate(m, tgt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.At(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if meshDigest(got) != meshDigest(want) {
			t.Fatalf("blob(%d, %d) target %d: At gives %d triangles, Decimate %d",
				m.TriangleCount(), seed, tgt, got.TriangleCount(), want.TriangleCount())
		}
	})
}

// TestProgressiveAtAllocs bounds a served extraction's allocations to the
// mesh and its two arrays: the per-vertex maps come from the log's pool.
// Rebuilding a full-resolution copy and compacting it would take several
// more. The race detector's sync.Pool drops a quarter of its Puts, two
// allocations each, so the count is averaged over enough runs that those
// stay below one a call.
func TestProgressiveAtAllocs(t *testing.T) {
	m, err := mesh.Blob(3000, 7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mesh.NewProgressive(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{0, m.TriangleCount() / 2, m.TriangleCount()} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.At(target); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Fatalf("At(%d) made %v allocs/op, want <= 3", target, allocs)
		}
	}
}
