package mesh

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Progressive is a progressive mesh (Hoppe, "Progressive Meshes", SIGGRAPH
// 1996) over the QEM decimator: the log of one exhaustive Garland–Heckbert
// run. The collapse order never depends on the target — Decimate only stops
// early once the live face count reaches it — so every decimation of the
// mesh is a prefix of the log, and At replays that prefix without a heap or
// a quadric. A built log is read-only and safe for concurrent use.
type Progressive struct {
	// base is the logged mesh; the log keeps it, so it must not be modified.
	base  *Mesh
	steps []collapseStep
	// death[fi] is the 1-based step that kills face fi, or math.MaxInt32
	// for a face that survives the exhaustive run.
	death []int32
	// scratch recycles At's per-vertex maps (*[]int32 of twice the base
	// vertex count) across calls; a pool keeps At safe for concurrent use.
	scratch sync.Pool
}

// collapseStep is one applied collapse: v merged into u, which moved to pos,
// leaving live faces.
type collapseStep struct {
	u, v int32
	live int32
	pos  Vec3
}

// NewProgressive runs the decimator on m to exhaustion and records the log.
// It costs about twice one Decimate of m to half resolution.
func NewProgressive(m *Mesh) (*Progressive, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &Progressive{
		base: m,
		// A collapse on a closed manifold kills two faces.
		steps: make([]collapseStep, 0, len(m.Triangles)/2),
		death: make([]int32, len(m.Triangles)),
	}
	for fi := range p.death {
		p.death[fi] = math.MaxInt32
	}
	p.scratch.New = func() any {
		buf := make([]int32, 2*len(m.Vertices))
		return &buf
	}
	d := newDecimator(m)
	d.log = p
	for d.step() {
	}
	return p, nil
}

// record appends the collapse step just applied.
func (p *Progressive) record(c *collapse, live int) {
	p.steps = append(p.steps, collapseStep{u: int32(c.u), v: int32(c.v), live: int32(live), pos: c.pos})
}

// kill marks face fi as dying in the step being applied, which record has
// not appended yet.
func (p *Progressive) kill(fi int) { p.death[fi] = int32(len(p.steps) + 1) }

// At returns exactly what Decimate returns for the logged mesh and target,
// bit for bit. It builds the compacted mesh directly: only the surviving
// faces and the positions of the vertices they use are written, never a
// full-resolution copy of the vertex array. Its per-vertex maps come from
// a pool, so the returned mesh is all it allocates once the pool is warm.
func (p *Progressive) At(target int) (*Mesh, error) {
	if target < 0 {
		return nil, fmt.Errorf("mesh: negative decimation target %d", target)
	}
	// Decimate collapses nothing at or above full resolution. Below it,
	// Decimate collapses while more than target faces live: it stops after
	// the first step that leaves at most target, or when the log runs out.
	k, live := 0, len(p.base.Triangles)
	if target < live {
		k = sort.Search(len(p.steps), func(i int) bool { return int(p.steps[i].live) <= target })
		if k < len(p.steps) {
			k++ // include the step that reached the target
		}
		if k > 0 {
			live = int(p.steps[k-1].live)
		}
	}
	steps := p.steps[:k]
	n := len(p.base.Vertices)
	buf := p.scratch.Get().(*[]int32)
	defer p.scratch.Put(buf)
	rep, remap := (*buf)[:n], (*buf)[n:]
	clear(remap) // a pooled buffer holds the last call's numbering
	// rep[w] is the vertex w has merged into after k steps. A survivor only
	// merges later than the step that merged into it, so walking the steps
	// backwards finds each survivor's representative already final.
	for w := range rep {
		rep[w] = int32(w)
	}
	for j := len(steps) - 1; j >= 0; j-- {
		rep[steps[j].v] = rep[steps[j].u]
	}
	// remap[w] is w's index in the compacted mesh, or -1 when no surviving
	// face uses it: Compact's numbering, in vertex order.
	for fi, t := range p.base.Triangles {
		if int(p.death[fi]) > k {
			remap[rep[t[0]]], remap[rep[t[1]]], remap[rep[t[2]]] = 1, 1, 1
		}
	}
	used := int32(0)
	for w, u := range remap {
		if u == 0 {
			remap[w] = -1
			continue
		}
		remap[w] = used
		used++
	}
	var verts []Vec3 // nil when no face survives, as Compact leaves it
	if used > 0 {
		verts = make([]Vec3, used)
	}
	for w, j := range remap {
		if j >= 0 {
			verts[j] = p.base.Vertices[w]
		}
	}
	// Replaying the positions forward leaves each survivor at its last move.
	for _, s := range steps {
		if j := remap[s.u]; j >= 0 {
			verts[j] = s.pos
		}
	}
	var tris []Triangle // nil when no face survives, as extract leaves it
	if live > 0 {
		tris = make([]Triangle, 0, live)
	}
	for fi, t := range p.base.Triangles {
		if int(p.death[fi]) > k {
			tris = append(tris, Triangle{remap[rep[t[0]]], remap[rep[t[1]]], remap[rep[t[2]]]})
		}
	}
	return &Mesh{Vertices: verts, Triangles: tris}, nil
}
