package mesh

import (
	"fmt"
	"math"
	"slices"
)

// quadric is a symmetric 4x4 error quadric stored as its upper triangle:
// [a11 a12 a13 a14 a22 a23 a24 a33 a34 a44].
type quadric [10]float64

func (q *quadric) addPlane(a, b, c, d float64) {
	q[0] += a * a
	q[1] += a * b
	q[2] += a * c
	q[3] += a * d
	q[4] += b * b
	q[5] += b * c
	q[6] += b * d
	q[7] += c * c
	q[8] += c * d
	q[9] += d * d
}

func (q *quadric) add(o *quadric) {
	for i := range q {
		q[i] += o[i]
	}
}

// eval returns v^T Q v for the homogeneous point (v, 1).
func (q *quadric) eval(v Vec3) float64 {
	return q[0]*v.X*v.X + 2*q[1]*v.X*v.Y + 2*q[2]*v.X*v.Z + 2*q[3]*v.X +
		q[4]*v.Y*v.Y + 2*q[5]*v.Y*v.Z + 2*q[6]*v.Y +
		q[7]*v.Z*v.Z + 2*q[8]*v.Z +
		q[9]
}

// optimal solves for the position minimizing the quadric, returning ok=false
// when the system is near-singular (flat regions).
func (q *quadric) optimal() (Vec3, bool) {
	a11, a12, a13 := q[0], q[1], q[2]
	a22, a23 := q[4], q[5]
	a33 := q[7]
	b := Vec3{-q[3], -q[6], -q[8]}
	det := a11*(a22*a33-a23*a23) - a12*(a12*a33-a23*a13) + a13*(a12*a23-a22*a13)
	if math.Abs(det) < 1e-12 {
		return Vec3{}, false
	}
	inv := 1 / det
	x := (b.X*(a22*a33-a23*a23) - a12*(b.Y*a33-a23*b.Z) + a13*(b.Y*a23-a22*b.Z)) * inv
	y := (a11*(b.Y*a33-a23*b.Z) - b.X*(a12*a33-a13*a23) + a13*(a12*b.Z-b.Y*a13)) * inv
	z := (a11*(a22*b.Z-b.Y*a23) - a12*(a12*b.Z-b.Y*a13) + b.X*(a12*a23-a22*a13)) * inv
	return Vec3{x, y, z}, true
}

// collapse is a candidate edge contraction in the priority queue.
type collapse struct {
	u, v int // vertex indices; v merges into u
	cost float64
	pos  Vec3
	verU int // vertex versions at push time; stale entries are skipped
	verV int
}

// less orders by cost with a deterministic (u, v) tie-break so equal-cost
// collapses pop in the same order every run.
func (c *collapse) less(o *collapse) bool {
	//lint:allow errlint exact equality is the tie-break trigger; a bits compare would split numerically equal costs
	if c.cost != o.cost {
		return c.cost < o.cost
	}
	if c.u != o.u {
		return c.u < o.u
	}
	return c.v < o.v
}

// collapseHeap is a binary min-heap of collapse values. push and pop make
// exactly the comparisons and moves of container/heap's up and down.
type collapseHeap []collapse

func (h *collapseHeap) push(c collapse) {
	*h = append(*h, c)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !c.less(&q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = c
}

func (h *collapseHeap) pop() collapse {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].less(&q[j]) {
			j = j2
		}
		if !q[j].less(&x) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	*h = q[:n]
	return top
}

// face is the decimator's working triangle: int indices, so its vertex
// bookkeeping stays in int. newDecimator widens the mesh's Triangles into
// it, and extract narrows the survivors back; every index stays below the
// input's vertex count, so the narrowing is exact.
type face [3]int

// decimator holds the working state of one QEM simplification run.
type decimator struct {
	verts    []Vec3
	quadrics []quadric
	version  []int
	faces    []face
	faceOK   []bool
	// vertFaces lists each vertex's live incident faces, in no particular
	// order. The lists start carved from one degree-counted backing array;
	// a list that outgrows its carve reallocates on append.
	vertFaces [][]int
	liveFaces int
	queue     collapseHeap
	// nbrs is apply's reused neighbour scratch.
	nbrs []int
	// log, when non-nil, records every applied collapse and face death
	// (NewProgressive); Decimate leaves it nil.
	log *Progressive
}

// Decimate simplifies the mesh to at most target triangles using
// quadric-error-metric edge collapse (Garland-Heckbert). The input mesh is
// not modified. Decimation is monotone: a smaller target never yields more
// triangles. Targets at or above the current count return a compacted copy.
func Decimate(m *Mesh, target int) (*Mesh, error) {
	if target < 0 {
		return nil, fmt.Errorf("mesh: negative decimation target %d", target)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if target >= m.TriangleCount() {
		return m.Clone().Compact(), nil
	}
	d := newDecimator(m)
	for d.liveFaces > target {
		if !d.step() {
			break // no valid collapse remains
		}
	}
	return d.extract(), nil
}

func newDecimator(m *Mesh) *decimator {
	nv, nf := len(m.Vertices), len(m.Triangles)
	d := &decimator{
		verts:     append([]Vec3(nil), m.Vertices...),
		quadrics:  make([]quadric, nv),
		version:   make([]int, nv),
		faces:     make([]face, nf),
		faceOK:    make([]bool, nf),
		vertFaces: make([][]int, nv),
		liveFaces: nf,
		queue:     make(collapseHeap, 0, 2*nf), // seeding pushes ~1.5 edges per face
	}
	degree := make([]int, nv)
	for fi, t := range m.Triangles {
		d.faces[fi] = face{int(t[0]), int(t[1]), int(t[2])}
		for _, v := range t {
			degree[v]++
		}
	}
	backing := make([]int, 3*nf)
	off := 0
	for v, n := range degree {
		d.vertFaces[v] = backing[off : off : off+n]
		off += n
	}
	for fi, t := range d.faces {
		d.faceOK[fi] = true
		for _, v := range t {
			d.vertFaces[v] = append(d.vertFaces[v], fi)
		}
		a, b, c := d.verts[t[0]], d.verts[t[1]], d.verts[t[2]]
		n := b.Sub(a).Cross(c.Sub(a))
		ln := n.Norm()
		if ln < 1e-15 {
			continue
		}
		n = n.Scale(1 / ln)
		off := -n.Dot(a)
		for _, v := range t {
			d.quadrics[v].addPlane(n.X, n.Y, n.Z, off)
		}
	}
	// Seed the queue with every edge once (u < v), in first-seen order: an
	// edge of face fi is new unless an earlier face also holds it. The face
	// lists are still in ascending face order here.
	for fi, t := range d.faces {
		edges := [3][2]int{{t[0], t[1]}, {t[1], t[2]}, {t[2], t[0]}}
		for _, e := range edges {
			u, v := e[0], e[1]
			if u > v {
				u, v = v, u
			}
			if !d.edgeBefore(u, v, fi) {
				d.pushCollapse(u, v)
			}
		}
	}
	return d
}

// edgeBefore reports whether a face before fi holds both u and v; it relies
// on u's face list being in ascending order.
func (d *decimator) edgeBefore(u, v, fi int) bool {
	for _, fj := range d.vertFaces[u] {
		if fj >= fi {
			return false
		}
		if contains(d.faces[fj], v) {
			return true
		}
	}
	return false
}

func (d *decimator) pushCollapse(u, v int) {
	var q quadric
	q = d.quadrics[u]
	q.add(&d.quadrics[v])
	pos, ok := q.optimal()
	if !ok {
		// Pick the best of endpoints and midpoint.
		mid := d.verts[u].Add(d.verts[v]).Scale(0.5)
		pos = mid
		best := q.eval(mid)
		if c := q.eval(d.verts[u]); c < best {
			best, pos = c, d.verts[u]
		}
		if c := q.eval(d.verts[v]); c < best {
			pos = d.verts[v]
		}
	}
	cost := q.eval(pos)
	if cost < 0 {
		cost = 0 // numeric noise on flat regions
	}
	d.queue.push(collapse{
		u: u, v: v, cost: cost, pos: pos,
		verU: d.version[u], verV: d.version[v],
	})
}

// step performs the cheapest valid collapse; it returns false when the queue
// is exhausted.
func (d *decimator) step() bool {
	for len(d.queue) > 0 {
		c := d.queue.pop()
		if c.verU != d.version[c.u] || c.verV != d.version[c.v] {
			continue // stale entry
		}
		if len(d.vertFaces[c.u]) == 0 || len(d.vertFaces[c.v]) == 0 {
			continue // dangling vertex
		}
		if !d.sharesEdge(c.u, c.v) {
			continue // edge disappeared through earlier collapses
		}
		if d.wouldFlip(&c) {
			// Penalize instead of dropping forever: requeue with the
			// midpoint, which flips less often, unless already midpoint.
			mid := d.verts[c.u].Add(d.verts[c.v]).Scale(0.5)
			if mid != c.pos {
				c.pos = mid
				c.cost += 1e-6
				d.queue.push(c)
			}
			continue
		}
		d.apply(&c)
		if d.log != nil {
			d.log.record(&c, d.liveFaces)
		}
		return true
	}
	return false
}

// sharesEdge reports whether u and v still share a live face: each list
// holds exactly its vertex's live faces, so some face of u contains v.
func (d *decimator) sharesEdge(u, v int) bool {
	for _, fi := range d.vertFaces[u] {
		if contains(d.faces[fi], v) {
			return true
		}
	}
	return false
}

// wouldFlip reports whether moving u and v to the collapse position inverts
// any surviving incident face normal.
func (d *decimator) wouldFlip(c *collapse) bool {
	check := func(vertex int) bool {
		for _, fi := range d.vertFaces[vertex] {
			t := d.faces[fi]
			// Faces containing both endpoints disappear; skip them.
			if contains(t, c.u) && contains(t, c.v) {
				continue
			}
			var before, after [3]Vec3
			for k, vi := range t {
				before[k] = d.verts[vi]
				if vi == vertex {
					after[k] = c.pos
				} else {
					after[k] = d.verts[vi]
				}
			}
			n0 := before[1].Sub(before[0]).Cross(before[2].Sub(before[0]))
			n1 := after[1].Sub(after[0]).Cross(after[2].Sub(after[0]))
			if n0.Dot(n1) < 0 {
				return true
			}
		}
		return false
	}
	return check(c.u) || check(c.v)
}

func contains(t face, v int) bool { return t[0] == v || t[1] == v || t[2] == v }

// kill retires face fi, dropping it from the face lists of its vertices
// other than skip (whose list the caller is discarding).
func (d *decimator) kill(fi, skip int) {
	d.faceOK[fi] = false
	d.liveFaces--
	if d.log != nil {
		d.log.kill(fi)
	}
	for _, w := range d.faces[fi] {
		if w == skip {
			continue
		}
		list := d.vertFaces[w]
		for k, f := range list {
			if f == fi {
				last := len(list) - 1
				list[k] = list[last]
				d.vertFaces[w] = list[:last]
				break
			}
		}
	}
}

// apply performs the collapse: v merges into u at the optimal position.
func (d *decimator) apply(c *collapse) {
	u, v := c.u, c.v
	d.verts[u] = c.pos
	d.quadrics[u].add(&d.quadrics[v])
	d.version[u]++
	d.version[v]++

	// One pass over v's faces: a face shared with u dies; any other is
	// rewired to u, and dies too if the rewire left it degenerate.
	for _, fi := range d.vertFaces[v] {
		t := &d.faces[fi]
		if contains(*t, u) {
			d.kill(fi, v)
			continue
		}
		for k := range t {
			if t[k] == v {
				t[k] = u
			}
		}
		if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			d.kill(fi, v)
			continue
		}
		d.vertFaces[u] = append(d.vertFaces[u], fi)
	}
	d.vertFaces[v] = nil

	// Refresh collapse candidates around u, visiting neighbours in sorted
	// order so the heap insertion sequence is deterministic.
	nbrs := d.nbrs[:0]
	for _, fi := range d.vertFaces[u] {
		for _, w := range d.faces[fi] {
			if w != u {
				nbrs = append(nbrs, w)
			}
		}
	}
	slices.Sort(nbrs)
	nbrs = slices.Compact(nbrs)
	for _, w := range nbrs {
		a, b := u, w
		if a > b {
			a, b = b, a
		}
		d.pushCollapse(a, b)
	}
	d.nbrs = nbrs
}

// extract builds the simplified mesh from the live faces.
func (d *decimator) extract() *Mesh {
	out := &Mesh{Vertices: d.verts}
	for fi, ok := range d.faceOK {
		if ok {
			t := d.faces[fi]
			out.Triangles = append(out.Triangles, Triangle{int32(t[0]), int32(t[1]), int32(t[2])})
		}
	}
	return out.Compact()
}

// DecimateToRatio simplifies the mesh to ratio times its current triangle
// count (the paper's decimation ratio R). Ratio is clamped to [0, 1].
func DecimateToRatio(m *Mesh, ratio float64) (*Mesh, error) {
	target, err := RatioTarget(ratio, m.TriangleCount())
	if err != nil {
		return nil, err
	}
	return Decimate(m, target)
}

// RatioTarget converts a decimation ratio into the triangle target that
// DecimateToRatio passes to Decimate: ratio is clamped to [0, 1] and
// ratio·triangles rounded to the nearest integer. A target at or above
// triangles means full resolution. Every ratio-driven decimation goes
// through it, so the reference path and the progressive log round alike.
func RatioTarget(ratio float64, triangles int) (int, error) {
	if math.IsNaN(ratio) {
		return 0, fmt.Errorf("mesh: NaN decimation ratio")
	}
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	return int(math.Round(ratio * float64(triangles))), nil
}
