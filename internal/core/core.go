// Package core implements Spectral LPM, the paper's contribution: an
// optimal locality-preserving mapping from a multi-dimensional point set to
// a linear order using the spectral (Fiedler) order of the point-set graph
// rather than a fractal space-filling curve.
//
// The algorithm follows the paper's Figure 2 exactly:
//
//  1. Model the point set P as a graph G(V,E) — an edge wherever two points
//     are at Manhattan distance 1 (package graph builds these, plus the §4
//     weighted/affinity/connectivity variants).
//  2. Form the Laplacian L(G) = D(G) − A(G).
//  3. Compute the second-smallest eigenvalue λ₂ and its eigenvector, the
//     Fiedler vector (package eigen).
//  4. Assign each vertex its Fiedler component.
//  5. The linear order S of P is the order of the assigned values.
//
// By Theorems 1–3 (Fiedler 1973; Juvan–Mohar 1992; Chan–Ciarlet–Szeto 1997)
// the Fiedler vector minimizes Σ_{(i,j)∈E} w·(x_i − x_j)² over unit vectors
// orthogonal to the all-ones vector, making the induced order a globally
// optimal (relaxed) locality-preserving mapping for the chosen graph.
//
// Disconnected graphs are handled by ordering each connected component
// independently and concatenating, since the Fiedler value of a disconnected
// graph is 0 and its eigenvector carries no intra-component information.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// Options configures SpectralOrder.
type Options struct {
	// Solver tunes the eigensolver (method, tolerance, seed). The zero
	// value uses automatic method selection with a fixed seed, so results
	// are deterministic.
	Solver eigen.Options
	// Degeneracy selects how a degenerate λ₂ eigenspace is resolved; the
	// zero value (DegeneracyBalanced) reproduces the paper's fairness
	// results on symmetric grids. See DegeneracyPolicy.
	Degeneracy DegeneracyPolicy
}

// Result is the outcome of Spectral LPM on a graph.
type Result struct {
	// Order is the paper's linear order S: Order[r] is the vertex placed
	// at rank r.
	Order []int
	// Rank is the inverse permutation: Rank[v] is the 1-D position of
	// vertex v.
	Rank []int
	// Fiedler holds each vertex's Fiedler-vector component (step 4's x_i),
	// per component of the graph, oriented so the order ascends with the
	// values. Near-equal values form tie groups broken by the paper's
	// recursive tie-breaking (see OrderByValues in tiebreak.go).
	Fiedler []float64
	// Lambda2 is λ₂ (the algebraic connectivity) of each connected
	// component, in component order.
	Lambda2 []float64
	// Components is the number of connected components ordered
	// independently.
	Components int
}

// SpectralOrder runs Spectral LPM (the paper's Figure 2) on g. The graph
// may be weighted (§4): edge weights express the priority of mapping the
// endpoints near each other. Components are ordered independently and
// concatenated in order of their smallest vertex id.
func SpectralOrder(g *graph.Graph, opt Options) (*Result, error) {
	n := g.N()
	res := &Result{
		Order:   make([]int, 0, n),
		Rank:    make([]int, n),
		Fiedler: make([]float64, n),
	}
	if n == 0 {
		return res, nil
	}
	comps := g.Components()
	res.Components = len(comps)
	for _, comp := range comps {
		switch len(comp) {
		case 1:
			res.Order = append(res.Order, comp[0])
			res.Lambda2 = append(res.Lambda2, 0)
			continue
		case 2:
			// K₂: the Fiedler pair is λ₂ = 2w with vector (±1/√2, ∓1/√2);
			// order deterministically by vertex id.
			w := g.EdgeWeight(comp[0], comp[1])
			res.Fiedler[comp[0]] = -0.7071067811865476
			res.Fiedler[comp[1]] = 0.7071067811865476
			res.Order = append(res.Order, comp[0], comp[1])
			res.Lambda2 = append(res.Lambda2, 2*w)
			continue
		}
		sub, ids, err := g.Subgraph(comp)
		if err != nil {
			return nil, fmt.Errorf("core: component extraction: %w", err)
		}
		lambda2, vec, err := resolveFiedler(sub, opt)
		if err != nil {
			return nil, fmt.Errorf("core: Fiedler solve on %d-vertex component: %w", len(comp), err)
		}
		res.Lambda2 = append(res.Lambda2, lambda2)
		for i, v := range ids {
			res.Fiedler[v] = vec[i]
		}
		// Canonical ordering (see tiebreak.go): snapped tie groups, the
		// paper's recursive tie-breaking on each group, deterministic
		// orientation. This is what makes the order a function of the
		// spectrum instead of the solver's rounding.
		vals := make([]float64, len(ids))
		for i, v := range ids {
			vals[i] = res.Fiedler[v]
		}
		// Tie groups with identical induced subgraphs share one recursive
		// solve: the constant-Fiedler slabs of a rectangular grid are
		// translation-congruent, so one slab's order serves all of them
		// (the analytic engine memoizes box orders by shape the same way).
		tieCache := map[string][]int{}
		ordered, flipped, err := OrderByValues(ids, vals, func(dst, group []int) ([]int, error) {
			return resolveTieGroup(dst, g, group, opt, tieCache)
		})
		if err != nil {
			return nil, fmt.Errorf("core: tie-break on %d-vertex component: %w", len(comp), err)
		}
		if flipped {
			for _, v := range comp {
				res.Fiedler[v] = -res.Fiedler[v]
			}
		}
		res.Order = append(res.Order, ordered...)
	}
	for r, v := range res.Order {
		res.Rank[v] = r
	}
	return res, nil
}

// resolveTieGroup is the paper's recursive tie-breaking: the vertices of one
// snapped tie group are ordered by Spectral LPM on the subgraph they induce
// and appended to dst.
// On a rectangular grid the tied vertices are a slab perpendicular to the
// longest axis and the recursion orders the slab as the (d−1)-dimensional
// grid it is; on a balanced square mix the tied vertices are mutually
// non-adjacent and the recursion degrades to singleton components in id
// order. Termination: the group is a strict subset of its component
// (OrderByValues handles the full-component case itself), so every level
// strictly shrinks. cache maps a canonical subgraph-shape key to its local
// order, so congruent groups (the M slabs of a rectangular grid, which
// induce identical local subgraphs) pay for one solve, not M.
func resolveTieGroup(dst []int, g *graph.Graph, group []int, opt Options, cache map[string][]int) ([]int, error) {
	if len(group) == 2 {
		// Either possible induced subgraph orders a pair ascending by id:
		// K₂'s deterministic fast path and two singleton components both
		// emit the smaller id first. Balanced square grids produce ~N/2
		// such pair groups, so skipping the Subgraph machinery here is the
		// difference between a per-group map and nothing.
		return append(dst, group...), nil
	}
	sub, sids, err := g.Subgraph(group)
	if err != nil {
		return nil, err
	}
	key := subgraphKey(sub)
	local, ok := cache[key]
	if !ok {
		res, err := SpectralOrder(sub, opt)
		if err != nil {
			return nil, err
		}
		local = res.Order
		cache[key] = local
	}
	for _, v := range local {
		dst = append(dst, sids[v])
	}
	return dst, nil
}

// subgraphKey serializes a subgraph's structure (vertex count plus the
// weighted edge list in Edges's deterministic iteration order) into a cache
// key. Subgraph relabels vertices in ascending original-id order, so two
// translation-congruent tie groups produce byte-identical keys — and
// SpectralOrder is deterministic in (graph, options), so equal keys imply
// equal local orders.
func subgraphKey(g *graph.Graph) string {
	buf := make([]byte, 0, 16+16*g.NumEdges())
	buf = binary.AppendVarint(buf, int64(g.N()))
	g.Edges(func(u, v int, w float64) {
		buf = binary.AppendVarint(buf, int64(u))
		buf = binary.AppendVarint(buf, int64(v))
		buf = binary.AppendUvarint(buf, math.Float64bits(w))
	})
	return string(buf)
}

// ArrangementCost returns the paper's Theorem 1 objective for an arbitrary
// vertex assignment x: Σ_{(u,v)∈E} w(u,v)·(x_u − x_v)². The Fiedler vector
// minimizes it over unit vectors orthogonal to ones, with minimum value λ₂.
func ArrangementCost(g *graph.Graph, x []float64) (float64, error) {
	if len(x) != g.N() {
		return 0, errors.New("core: assignment length mismatch")
	}
	var cost float64
	g.Edges(func(u, v int, w float64) {
		d := x[u] - x[v]
		cost += w * d * d
	})
	return cost, nil
}

// LinearArrangementCost returns the discrete minimum-linear-arrangement
// objective Σ_{(u,v)∈E} w(u,v)·|rank_u − rank_v| for a rank assignment —
// the combinatorial quantity the spectral order approximates (Juvan–Mohar).
func LinearArrangementCost(g *graph.Graph, rank []int) (float64, error) {
	if len(rank) != g.N() {
		return 0, errors.New("core: rank length mismatch")
	}
	var cost float64
	g.Edges(func(u, v int, w float64) {
		d := rank[u] - rank[v]
		if d < 0 {
			d = -d
		}
		cost += w * float64(d)
	})
	return cost, nil
}

// Bisect splits a graph into two halves at the median of the spectral
// order — the spectral bisection the paper cites (Chan, Ciarlet, and Szeto
// 1997) in its optimality argument, usable for declustering and
// partitioning applications. Vertices at rank < ⌈n/2⌉ form the first half;
// both halves are returned sorted by vertex id.
func Bisect(g *graph.Graph, opt Options) (left, right []int, err error) {
	res, err := SpectralOrder(g, opt)
	if err != nil {
		return nil, nil, err
	}
	half := (g.N() + 1) / 2
	left = append([]int(nil), res.Order[:half]...)
	right = append([]int(nil), res.Order[half:]...)
	sort.Ints(left)
	sort.Ints(right)
	return left, right, nil
}
