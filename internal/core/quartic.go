package core

import (
	"math"
	"math/rand"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// The balanced degeneracy policy picks, within the λ₂ eigenspace, the unit
// vector minimizing the quartic edge objective Σ w·(x_u−x_v)⁴. The
// minimizer is generally not unique — on a square grid every sign pattern
// of the diagonal axis mix attains the same minimum — so "minimize the
// quartic" alone does not pin one vector. The engine below makes the choice
// a function of the EIGENSPACE (the subspace itself), not of the particular
// orthonormal basis a solver happened to return for it:
//
//   - Starts are seeded pseudorandom vectors in the AMBIENT space projected
//     onto the eigenspace. With any orthonormal basis of the same subspace,
//     the projection is the same ambient vector, so the descent — whose
//     every step (tangent-projected gradient, normalization, backtracking)
//     is basis-covariant — walks the same trajectory in x-space.
//   - Among the descent results within quarticPickTol of the best objective
//     (the symmetric minimizers of a degenerate grid), the winner maximizes
//     a fixed deterministic linear functional Σ mixWeight(v)·x_v, which
//     separates the sign patterns (and ±x) by O(1) margins where objective
//     values differ only by rounding.
//
// The closed-form grid engine (internal/analytic) evaluates the same
// objective over the analytic cosine basis through this same engine, which
// is why its mixes agree with the eigensolver's rank-for-rank.

// EigenspaceMix is a degenerate λ₂ eigenspace presented to MixBalanced: an
// m-dimensional subspace of R^n with the quartic edge objective expressed
// in the coordinates of an orthonormal basis.
type EigenspaceMix interface {
	// Ambient returns n, the number of vertices.
	Ambient() int
	// Dim returns m, the eigenspace dimension.
	Dim() int
	// Project writes c = Bᵀr, the coefficients of the orthogonal projection
	// of ambient vector r onto the eigenspace. c has length Dim.
	Project(r []float64, c []float64)
	// Objective returns Σ_{(u,v)∈E} w·(x_u−x_v)⁴ for x = Bc.
	Objective(c []float64) float64
	// Gradient writes ∂Objective/∂c into out (length Dim).
	Gradient(c []float64, out []float64)
	// Assemble writes x = Bc into x, which has length Ambient.
	Assemble(c, x []float64)
}

// quarticPickTol is the relative objective slack within which two descent
// results count as the same minimum value and the linear functional decides.
const quarticPickTol = 1e-9

// mixWeight is the fixed per-vertex weight of the canonicalizing linear
// functional (a splitmix64 hash mapped to [−1,1)) — deterministic, stateless
// and identical on every path that mixes an eigenspace.
func mixWeight(v int) float64 {
	z := uint64(v)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11)/(1<<52) - 1
}

// mixFunctional evaluates the canonicalizing functional Σ w[v]·x_v, where
// w holds mixWeight(v) for every vertex.
func mixFunctional(w, x []float64) float64 {
	var s float64
	for v, xv := range x {
		s += w[v] * xv
	}
	return s
}

// MixBalanced returns the balanced unit vector of the eigenspace: the
// quartic minimizer selected basis-independently as described above. seed
// drives the deterministic starts (the same seed always returns the same
// vector for the same subspace, whatever basis presents it).
func MixBalanced(sp EigenspaceMix, seed int64) []float64 {
	n, m := sp.Ambient(), sp.Dim()
	grad := make([]float64, m)
	trial := make([]float64, m)
	descend := func(c []float64) float64 {
		f := sp.Objective(c)
		step := 0.5
		for it := 0; it < 200 && step > 1e-12; it++ {
			sp.Gradient(c, grad)
			// Project the gradient onto the tangent space of the sphere.
			la.Axpy(-la.Dot(grad, c), c, grad)
			gn := la.Norm2(grad)
			if gn < 1e-14*(1+f) {
				break
			}
			la.Copy(trial, c)
			la.Axpy(-step/gn, grad, trial)
			if la.Normalize(trial) == 0 {
				step *= 0.5
				continue
			}
			if ft := sp.Objective(trial); ft < f {
				la.Copy(c, trial)
				f = ft
				step *= 1.2
			} else {
				step *= 0.5
			}
		}
		return f
	}

	rng := rand.New(rand.NewSource(seed + 12345))
	r := make([]float64, n)
	type candidate struct {
		c []float64
		f float64
	}
	var cands []candidate
	for s := 0; s < 3+m; s++ {
		// The full ambient vector is always drawn, so the rng stream (and
		// with it every later start) is identical on every path.
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		c := make([]float64, m)
		sp.Project(r, c)
		if la.Normalize(c) == 0 {
			continue // start orthogonal to the eigenspace; vanishingly rare
		}
		f := descend(c)
		cands = append(cands, candidate{c: c, f: f})
	}
	if len(cands) == 0 {
		// Every start vanished under projection (not reachable in practice);
		// any unit coefficient vector is still an optimal Theorem-1 answer.
		c := make([]float64, m)
		c[0] = 1
		x := make([]float64, n)
		sp.Assemble(c, x)
		return x
	}
	bestF := math.Inf(1)
	for _, cd := range cands {
		if cd.f < bestF {
			bestF = cd.f
		}
	}
	// The functional's weights are hashed once, and two ambient buffers
	// serve every candidate: the best so far and the one being assembled.
	weights := make([]float64, n)
	for v := range weights {
		weights[v] = mixWeight(v)
	}
	var best, x []float64
	bestL := math.Inf(-1)
	for _, cd := range cands {
		if cd.f > bestF+quarticPickTol*(1+bestF) {
			continue
		}
		if x == nil {
			x = make([]float64, n)
		}
		sp.Assemble(cd.c, x)
		if l := mixFunctional(weights, x); l > bestL {
			bestL = l
			best, x = x, best
		}
	}
	la.Normalize(best)
	return best
}

// edgeMixSpace is the eigensolver-path EigenspaceMix: the quartic objective
// materialized as per-edge differences of the numeric basis vectors.
type edgeMixSpace struct {
	n     int
	basis [][]float64
	edges []edgeDiff
}

type edgeDiff struct {
	w float64
	d []float64
}

func newEdgeMixSpace(g *graph.Graph, basis [][]float64) *edgeMixSpace {
	sp := &edgeMixSpace{n: g.N(), basis: basis}
	m := len(basis)
	g.Edges(func(u, v int, w float64) {
		d := make([]float64, m)
		for j, b := range basis {
			d[j] = b[u] - b[v]
		}
		sp.edges = append(sp.edges, edgeDiff{w: w, d: d})
	})
	return sp
}

func (sp *edgeMixSpace) Ambient() int { return sp.n }
func (sp *edgeMixSpace) Dim() int     { return len(sp.basis) }

func (sp *edgeMixSpace) Project(r []float64, c []float64) {
	for j, b := range sp.basis {
		c[j] = la.Dot(r, b)
	}
}

func (sp *edgeMixSpace) Objective(c []float64) float64 {
	var f float64
	for _, e := range sp.edges {
		var delta float64
		for j := range c {
			delta += c[j] * e.d[j]
		}
		sq := delta * delta
		f += e.w * sq * sq
	}
	return f
}

func (sp *edgeMixSpace) Gradient(c []float64, out []float64) {
	la.Zero(out)
	for _, e := range sp.edges {
		var delta float64
		for j := range c {
			delta += c[j] * e.d[j]
		}
		coef := 4 * e.w * delta * delta * delta
		for j := range out {
			out[j] += coef * e.d[j]
		}
	}
}

func (sp *edgeMixSpace) Assemble(c, x []float64) {
	la.Zero(x)
	for j, b := range sp.basis {
		la.Axpy(c[j], b, x)
	}
}
