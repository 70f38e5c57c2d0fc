// Package analytic computes the spectral order of the paper's default
// construction — the orthogonal, unit-weight grid graph — in closed form,
// with zero eigensolves.
//
// The Laplacian of an m₁×…×m_d grid is the Kronecker sum of path-graph
// Laplacians, so its eigenpairs are tensor products of the path eigenpairs:
// every eigenvalue is a sum Σ_a 2(1−cos(π k_a/m_a)) and its eigenvector is
// the product of path cosines cos(π k_a (i_a+½)/m_a). The second-smallest
// eigenvalue takes k = (0,…,0) except a single 1 on a longest axis:
//
//	λ₂ = 2(1 − cos(π/M)),   M = max side,
//
// and its eigenspace is spanned by the first cosine harmonic along each
// axis of length M — one vector per longest axis, constant across all other
// axes. GridOrder materializes that eigenspace directly:
//
//   - A unique longest axis gives a simple λ₂; the Fiedler vector is the
//     single harmonic.
//   - Tied longest axes give a degenerate eigenspace with a fully analytic
//     basis; the DegeneracyBalanced quartic mixing runs over that basis
//     through the same basis-independent engine (core.MixBalanced) the
//     eigensolver path uses — no EigenspaceProbe, no solve. The quartic
//     objective itself collapses to the closed form Σ_a c_a⁴·S with one
//     O(M) coefficient, so each descent step is O(k).
//   - Ordering sorts SLABS, not vertices. The Fiedler value depends only on
//     the tied-axis coordinates, so every vertex of a slab — the full
//     sub-grid over the non-tied axes at one tied-coordinate tuple — shares
//     one value, and core.VisitTieGroups (the same sort, snapping and
//     orientation as the solver path's core.OrderByValues) runs over one
//     entry per slab: 1024 entries for a 1024×768 grid instead of 786k.
//   - Tie groups are resolved analytically, in one pass over the groups
//     with scratch owned by the call. A group is a union of slabs; slabs
//     whose tied coordinates differ by one step are adjacent, and the
//     components of that slab graph (a union-find over the group's
//     members, in a reused buffer) are emitted in order of their smallest
//     id. A component that is an axis-aligned box in tied-coordinate space
//     induces a sub-grid, so the paper's recursive tie-breaking recurses
//     into the closed form again: the box's order depends only on its
//     dims, and translating it keeps the relative order of ids, so each
//     distinct box shape is ordered once per call and reused at every
//     offset. The recursion never solves an eigenproblem at any level,
//     except for band-shaped components that snapping merges on axes
//     ≳1000 long (see appendComponent).
//
// The result is pinned rank-for-rank to the eigensolver path wherever the
// solver resolves the spectrum faithfully: both paths share the ordering
// pipeline and the mixing engine, so they can only diverge where solver
// error exceeds the snapping tolerance or where genuinely distinct
// eigenvalues fall inside the solver's degeneracy tolerance (axes of
// length ≳10⁵, far beyond buildable grids).
package analytic

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// maxMixAxes mirrors the eigensolver path's probed-multiplicity cap (core's
// maxProbedMultiplicity): the solver mixes at most 8 eigenspace members, so
// a grid with more than 8 tied longest axes falls back to the solver rather
// than mix a larger basis than the solver would.
const maxMixAxes = 8

// ErrNoClosedForm reports a grid outside the closed-form engine's reach
// (more tied longest axes than the solver-mirroring mixing cap, at the top
// level or in a sub-grid of the recursion). Callers fall back to the
// eigensolver on it, and only on it: any other GridOrder error is a fault.
var ErrNoClosedForm = errors.New("analytic: tie structure has no closed form")

// Result is the closed-form spectral order of a default grid.
type Result struct {
	// Order[r] is the vertex placed at rank r; Rank is its inverse. Both
	// are checked permutations of the grid's vertices.
	Order []int
	Rank  []int
	// Fiedler is the analytic Fiedler assignment (the degenerate-balanced
	// mix on square-ish grids), oriented so the order ascends with it.
	Fiedler []float64
	// Lambda2 is the closed-form algebraic connectivity 2(1 − cos(π/M)).
	Lambda2 float64
}

// Applicable reports whether GridOrder covers the grid: at most maxMixAxes
// axes tie for the longest side. (Every other default grid is covered; a
// failure inside GridOrder's tie resolution is still possible in principle
// and surfaces as an error there.)
func Applicable(g *graph.Grid) bool {
	dims := g.Dims()
	m := 0
	for _, s := range dims {
		if s > m {
			m = s
		}
	}
	if m < 2 {
		return true // single vertex
	}
	tied := 0
	for _, s := range dims {
		if s == m {
			tied++
		}
	}
	return tied <= maxMixAxes
}

// GridOrder computes the spectral order of the orthogonal unit-weight graph
// of g analytically, in O(N log N) time and zero eigensolves. seed drives
// the deterministic degenerate mixing exactly as it does on the solver
// path. An error wrapping ErrNoClosedForm means the caller should run the
// eigensolver instead; any other error (an order that is not a
// permutation, a failed sub-solve) is returned as a fault.
func GridOrder(g *graph.Grid, seed int64) (*Result, error) {
	n := g.Size()
	if n == 1 {
		return &Result{Order: []int{0}, Rank: []int{0}, Fiedler: []float64{0}, Lambda2: 0}, nil
	}
	e, err := newEngine(g, seed)
	if err != nil {
		return nil, err
	}
	x := e.fiedler()
	ordered, flipped, err := e.order(x)
	if err != nil {
		return nil, err
	}
	if flipped {
		for i := range x {
			x[i] = -x[i]
		}
	}
	// Invert the order, proving on the way that it is a permutation, so
	// callers may adopt Order and Rank without validating them again.
	rank := make([]int, n)
	for v := range rank {
		rank[v] = -1
	}
	if len(ordered) != n {
		return nil, fmt.Errorf("analytic: order holds %d of %d vertices", len(ordered), n)
	}
	for r, v := range ordered {
		if rank[v] >= 0 {
			return nil, fmt.Errorf("analytic: vertex %d ordered twice", v)
		}
		rank[v] = r
	}
	return &Result{
		Order:   ordered,
		Rank:    rank,
		Fiedler: x,
		Lambda2: 2 * (1 - math.Cos(math.Pi/float64(e.m))),
	}, nil
}

// orderOf returns just the spectral order of g, for the recursion into
// sub-grids.
func orderOf(g *graph.Grid, seed int64) ([]int, error) {
	if g.Size() == 1 {
		return []int{0}, nil
	}
	e, err := newEngine(g, seed)
	if err != nil {
		return nil, err
	}
	ordered, _, err := e.order(e.fiedler())
	return ordered, err
}

// engine holds the analytic structure of one grid — tied axes, cosine
// tables, strides — and the scratch of one ordering pass.
type engine struct {
	g      *graph.Grid
	dims   []int
	stride []int
	axesT  []int // axes tied for the longest side M
	nonT   []int // the remaining axes
	m      int   // M, the longest side
	seed   int64
	cosT   []float64 // cos(π(i+½)/M), i = 0..M−1
	gamma  float64   // per-harmonic normalization √(2/N)

	// A slab is named by its base id: its smallest vertex id, where every
	// non-tied coordinate is zero.
	nonTVol int // vertices per slab

	// Ordering scratch, reused by every tie group of one pass.
	parent []int // union-find forest over the members of one group
	comp   []int // the slab component being emitted
	boxes  map[boxShape][]int
}

// boxShape is the extent of a box of slabs along each tied axis; the
// non-tied axes always span the full grid.
type boxShape [maxMixAxes]int

func newEngine(g *graph.Grid, seed int64) (*engine, error) {
	dims := g.Dims()
	d := len(dims)
	e := &engine{g: g, dims: dims, seed: seed}
	e.stride = make([]int, d)
	s := 1
	for i := d - 1; i >= 0; i-- {
		e.stride[i] = s
		s *= dims[i]
	}
	for _, side := range dims {
		if side > e.m {
			e.m = side
		}
	}
	e.nonTVol = 1
	for a, side := range dims {
		if side == e.m {
			e.axesT = append(e.axesT, a)
		} else {
			e.nonT = append(e.nonT, a)
			e.nonTVol *= side
		}
	}
	if len(e.axesT) > maxMixAxes {
		return nil, fmt.Errorf("analytic: %d tied longest axes exceed the %d-member mixing cap: %w",
			len(e.axesT), maxMixAxes, ErrNoClosedForm)
	}
	e.cosT = make([]float64, e.m)
	for i := range e.cosT {
		e.cosT[i] = math.Cos(math.Pi * (float64(i) + 0.5) / float64(e.m))
	}
	e.gamma = math.Sqrt(2 / float64(g.Size()))
	return e, nil
}

// fiedler returns the analytic Fiedler assignment: the single harmonic on a
// unique longest axis, or the balanced mix of the tied-axis harmonics.
func (e *engine) fiedler() []float64 {
	if len(e.axesT) == 1 {
		x := make([]float64, e.g.Size())
		e.addHarmonic(x, e.axesT[0], e.gamma)
		return x
	}
	return core.MixBalanced(&mixSpace{e: e}, e.seed)
}

// addHarmonic accumulates x[v] += scale·cos(π(coord_axis(v)+½)/M) for a tied
// axis. Ids are row-major, so the axis coordinate is constant over runs of
// stride consecutive ids and cycles through 0..M−1: walking the runs needs
// no division.
func (e *engine) addHarmonic(x []float64, axis int, scale float64) {
	st := e.stride[axis]
	for blk := range slices.Chunk(x, st*e.m) {
		if st == 1 {
			for c, w := range e.cosT {
				blk[c] += scale * w
			}
			continue
		}
		for c, w := range e.cosT {
			run := blk[c*st : (c+1)*st]
			for i := range run {
				run[i] += scale * w
			}
		}
	}
}

// project returns Σ_v r[v]·cos(π(coord_axis(v)+½)/M), summed in ascending
// v and walking coordinate runs as addHarmonic does.
func (e *engine) project(r []float64, axis int) float64 {
	st := e.stride[axis]
	var dot float64
	for blk := range slices.Chunk(r, st*e.m) {
		if st == 1 {
			for c, w := range e.cosT {
				dot += blk[c] * w
			}
			continue
		}
		for c, w := range e.cosT {
			for _, rv := range blk[c*st : (c+1)*st] {
				dot += rv * w
			}
		}
	}
	return dot
}

// mixSpace presents the tied-axis eigenspace to core.MixBalanced. The basis
// vectors b_a(v) = γ·cos(π(coord_a(v)+½)/M) are exactly orthonormal, and
// because b_a differs across an edge only when the edge runs along axis a,
// the quartic edge objective collapses to f(c) = S·Σ_a c_a⁴ with a single
// shared coefficient S (tied axes have identical harmonics).
type mixSpace struct {
	e *engine
	s float64 // lazily computed quartic coefficient
}

func (sp *mixSpace) Ambient() int { return sp.e.g.Size() }
func (sp *mixSpace) Dim() int     { return len(sp.e.axesT) }

func (sp *mixSpace) Project(r []float64, c []float64) {
	e := sp.e
	for j, axis := range e.axesT {
		c[j] = e.gamma * e.project(r, axis)
	}
}

func (sp *mixSpace) coef() float64 {
	if sp.s == 0 {
		e := sp.e
		var sum float64
		for i := 0; i+1 < e.m; i++ {
			d := e.cosT[i+1] - e.cosT[i]
			sum += d * d * d * d
		}
		g4 := e.gamma * e.gamma * e.gamma * e.gamma
		sp.s = g4 * float64(e.g.Size()/e.m) * sum
	}
	return sp.s
}

func (sp *mixSpace) Objective(c []float64) float64 {
	var f float64
	for _, cj := range c {
		sq := cj * cj
		f += sq * sq
	}
	return sp.coef() * f
}

func (sp *mixSpace) Gradient(c []float64, out []float64) {
	s := sp.coef()
	for j, cj := range c {
		out[j] = 4 * s * cj * cj * cj
	}
}

func (sp *mixSpace) Assemble(c, x []float64) {
	e := sp.e
	clear(x)
	for j, axis := range e.axesT {
		e.addHarmonic(x, axis, e.gamma*c[j])
	}
}

// order runs the paper's ordering over the slabs of the grid: one entry
// per slab carries the value its vertices share and the slab's base id,
// core.VisitTieGroups sorts, snaps and orients the entries, and each tie
// group is expanded to vertices in its recursive order. That is the
// vertex-level result: a slab's vertices hold bit-identical values, so
// they never straddle a group boundary, and the base id is the slab's
// smallest vertex id, the only id the sort and the orientation test can
// tell apart from the rest of the slab.
func (e *engine) order(x []float64) (ordered []int, flipped bool, err error) {
	nslab := len(x) / e.nonTVol
	ents := make([]core.Entry, 0, nslab)
	if e.nonTVol == 1 {
		for id, v := range x {
			ents = append(ents, core.Entry{Val: v, ID: id})
		}
	} else {
		// Walk the base ids in ascending order, advancing the tied
		// coordinates like an odometer.
		digits := make([]int, len(e.axesT))
		for key := 0; len(ents) < nslab; {
			ents = append(ents, core.Entry{Val: x[key], ID: key})
			for p := len(digits) - 1; p >= 0; p-- {
				st := e.stride[e.axesT[p]]
				if digits[p]++; digits[p] < e.m {
					key += st
					break
				}
				digits[p] = 0
				key -= (e.m - 1) * st
			}
		}
	}
	e.boxes = make(map[boxShape][]int)
	ordered = make([]int, 0, len(x))
	flipped, err = core.VisitTieGroups(ents, func(group []core.Entry) error {
		var err error
		switch len(group) {
		case nslab:
			// The whole grid snapped into one group: id order, as on the
			// solver path.
			for id := range x {
				ordered = append(ordered, id)
			}
		case 1:
			ordered, err = e.appendSlab(ordered, group[0].ID)
		default:
			ordered, err = e.appendGroup(ordered, group)
		}
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return ordered, flipped, nil
}

// coord returns the coordinate of vertex id along tied axis axesT[p].
func (e *engine) coord(id, p int) int { return (id / e.stride[e.axesT[p]]) % e.m }

// appendGroup is the analytic form of the paper's recursive tie-breaking
// for a group of several slabs, given ascending. Connected components of
// the group's slab graph (adjacency: tied coordinates one step apart) are
// emitted in order of their smallest slab — exactly what the solver path's
// component split does — each in its recursive order (appendComponent).
func (e *engine) appendGroup(dst []int, group []core.Entry) ([]int, error) {
	// Union adjacent members. Roots are kept at the smallest member, and
	// only members at most the largest tied stride apart can be adjacent.
	parent := e.parent[:0]
	for i := range group {
		parent = append(parent, i)
	}
	e.parent = parent
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	unions := 0
	for i, a := range group {
		for j := i + 1; j < len(group) && group[j].ID-a.ID <= e.stride[e.axesT[0]]; j++ {
			if e.adjacent(a.ID, group[j].ID) {
				if ri, rj := find(i), find(j); ri != rj {
					parent[max(ri, rj)] = min(ri, rj)
					unions++
				}
			}
		}
	}
	var err error
	if unions == 0 {
		// The common case — e.g. the symmetric pair {(i,j),(j,i)} of a
		// square grid, never adjacent: singleton components in id order.
		for _, en := range group {
			if dst, err = e.appendSlab(dst, en.ID); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	for i := range group {
		if find(i) != i {
			continue // emitted with the component of a smaller member
		}
		comp := e.comp[:0]
		for j := i; j < len(group); j++ {
			if find(j) == i {
				comp = append(comp, group[j].ID)
			}
		}
		e.comp = comp
		if dst, err = e.appendComponent(dst, comp); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// adjacent reports whether the slabs based at s < t are one grid step
// apart: t − s is the stride of one tied axis, and adding it to s moves no
// other coordinate (tied strides are distinct, so at most one fits).
func (e *engine) adjacent(s, t int) bool {
	for p, a := range e.axesT {
		if t-s == e.stride[a] {
			return e.coord(s, p)+1 < e.m
		}
	}
	return false
}

// appendSlab emits the vertices of the slab based at key in the recursive
// spectral order of the non-tied sub-grid.
func (e *engine) appendSlab(dst []int, key int) ([]int, error) {
	if e.nonTVol == 1 {
		return append(dst, key), nil
	}
	var unit boxShape
	for p := range e.axesT {
		unit[p] = 1
	}
	return e.appendBox(dst, key, unit)
}

// appendComponent emits one slab component in its recursive spectral order.
func (e *engine) appendComponent(dst []int, comp []int) ([]int, error) {
	if len(comp) == 1 {
		return e.appendSlab(dst, comp[0])
	}
	// Several adjacent slabs: they must tile an axis-aligned box in
	// tied-coordinate space for the induced subgraph to be a grid.
	var lo, hi, shape boxShape
	for p := range e.axesT {
		lo[p] = e.m
	}
	for _, s := range comp {
		for p := range e.axesT {
			c := e.coord(s, p)
			lo[p] = min(lo[p], c)
			hi[p] = max(hi[p], c)
		}
	}
	vol, base := 1, 0
	for p, a := range e.axesT {
		shape[p] = hi[p] - lo[p] + 1
		vol *= shape[p]
		base += lo[p] * e.stride[a]
	}
	if vol != len(comp) {
		// The component is not an axis-aligned box (adjacent slabs merged by
		// snapping into a band — axes of length ≳1000). Order its members
		// exactly the way the solver path's recursion would: a spectral
		// solve of the induced subgraph, bounded by the component size,
		// which is a vanishing fraction of the grid.
		members := make([]int, 0, len(comp)*e.nonTVol)
		for _, key := range comp {
			members = e.appendSlabMembers(members, key)
		}
		slices.Sort(members)
		return e.solveSubgraph(dst, members)
	}
	return e.appendBox(dst, base, shape)
}

// appendBox emits the box of slabs with the given shape whose smallest
// vertex id is base, in the spectral order of the sub-grid it induces.
// The box's order depends only on its dims, and translation by base keeps
// the relative order of ids, so the order is computed once per shape (as
// id offsets from base) and reused at every offset.
func (e *engine) appendBox(dst []int, base int, shape boxShape) ([]int, error) {
	offsets, ok := e.boxes[shape]
	if !ok {
		subDims := slices.Clone(e.dims)
		for p, a := range e.axesT {
			subDims[a] = shape[p]
		}
		subGrid, err := graph.NewGrid(subDims...)
		if err != nil {
			return nil, err
		}
		// Strictly smaller than the enclosing grid: the box is a strict
		// subset of a tie group, itself a strict subset of the grid.
		sub, err := orderOf(subGrid, e.seed)
		if err != nil {
			return nil, err
		}
		offsets = make([]int, len(sub))
		coords := make([]int, len(subDims))
		for r, v := range sub {
			subGrid.Coords(v, coords)
			off := 0
			for i, c := range coords {
				off += c * e.stride[i]
			}
			offsets[r] = off
		}
		e.boxes[shape] = offsets
	}
	for _, off := range offsets {
		dst = append(dst, base+off)
	}
	return dst, nil
}

// appendSlabMembers appends every vertex id of the slab based at key (the
// full non-tied box translated to the slab's tied coordinates).
func (e *engine) appendSlabMembers(dst []int, key int) []int {
	if len(e.nonT) == 0 {
		return append(dst, key)
	}
	coords := make([]int, len(e.nonT))
	for {
		id := key
		for i, b := range e.nonT {
			id += coords[i] * e.stride[b]
		}
		dst = append(dst, id)
		i := len(coords) - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < e.dims[e.nonT[i]] {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return dst
		}
	}
}

// solveSubgraph orders an arbitrary member set by a true spectral solve of
// its induced grid subgraph — the solver path's own recursion step, used
// only for band-shaped tie groups outside the closed form.
func (e *engine) solveSubgraph(out []int, members []int) ([]int, error) {
	g := graph.New(len(members))
	idx := make(map[int]int, len(members))
	for li, id := range members {
		idx[id] = li
	}
	for li, id := range members {
		for axis, side := range e.dims {
			st := e.stride[axis]
			if (id/st)%side+1 < side {
				if lj, ok := idx[id+st]; ok {
					if err := g.AddUnitEdge(li, lj); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	res, err := core.SpectralOrder(g, core.Options{Solver: eigen.Options{Seed: e.seed}})
	if err != nil {
		return nil, err
	}
	for _, v := range res.Order {
		out = append(out, members[v])
	}
	return out, nil
}
