package core

import (
	"cmp"
	"slices"
)

// The spectral order of step 5 is "the order of the assigned values" — but
// assigned values tie. On the paper's own default construction ties are the
// rule, not the exception: the Fiedler vector of a rectangular grid is
// constant on every slab perpendicular to its longest axis, so whole
// hyperplanes of points share one value. A floating-point eigensolver
// renders those ties as noise at the solver's residual scale, which would
// make the induced order an artifact of the solver method rather than of
// the spectrum. OrderByValues defines the order canonically instead:
//
//  1. Snap: values within snapRelTol of each other (relative to the
//     component's value range) form one tie group — wide enough to absorb
//     solver residuals, narrow enough that genuinely distinct spectral
//     values never merge on supported problem sizes.
//  2. Orient: x and −x are the same eigenvector; the order is computed for
//     the orientation whose LAST tie group does not hold the smallest
//     vertex id of the extreme groups, so the order starts at the
//     low-id end of the spectrum regardless of the solver's sign choice.
//  3. Resolve: a tie group larger than one vertex is ordered by the
//     caller's resolver — the paper's recursive tie-breaking (Spectral LPM
//     re-applied to the subgraph induced by the tied vertices). A group
//     that swallows the whole component falls back to id order, which
//     bounds the recursion.
//
// Both the eigensolver path (SpectralOrder) and the closed-form grid engine
// (internal/analytic) order through VisitTieGroups, the sort-snap-orient
// step, which is what makes the two paths comparable rank-for-rank.

// snapRelTol is the relative value gap (scaled by the component's value
// range) below which two Fiedler components are one tie group. It must sit
// well above the eigensolver residual (1e-9, amplified by the eigengap) and
// well below the smallest genuine value gap (≳1e-5 of the range for grids
// up to ~1000 per side).
const snapRelTol = 1e-6

// Entry is one value of the assignment being ordered and the id it
// belongs to.
type Entry struct {
	Val float64
	ID  int
}

// compareEntries orders by value, then id. Ids are distinct, so it is a
// total order and an unstable sort gives the one sorted sequence; ±0
// compare equal, so they fall back to the id as well.
func compareEntries(a, b Entry) int {
	switch {
	case a.Val < b.Val:
		return -1
	case a.Val > b.Val:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// compareIDs orders a tie group's entries ascending by id.
func compareIDs(a, b Entry) int { return cmp.Compare(a.ID, b.ID) }

// VisitTieGroups sorts ents ascending by (value, id), snaps them into tie
// groups (steps 1 and 2 above) and calls visit on each group in the
// oriented order, as a subslice of ents re-sorted ascending by id. visit
// may reorder that subslice but must not keep it. A visit error stops the
// walk.
// The result reports whether orientation reversed the value order. When
// every value snaps into one group (a constant or near-constant
// assignment), visit receives all of ents in one call; callers treat that
// group as id order.
func VisitTieGroups(ents []Entry, visit func(group []Entry) error) (flipped bool, err error) {
	n := len(ents)
	if n == 0 {
		return false, nil
	}
	slices.SortFunc(ents, compareEntries)
	tol := snapRelTol * (ents[n-1].Val - ents[0].Val)
	// joined reports whether ents[i] snaps onto ents[i-1].
	joined := func(i int) bool { return !(ents[i].Val-ents[i-1].Val > tol) }
	firstEnd := 1
	for firstEnd < n && joined(firstEnd) {
		firstEnd++
	}
	if firstEnd < n {
		lastStart := n - 1
		for joined(lastStart) {
			lastStart--
		}
		flipped = minID(ents[lastStart:]) < minID(ents[:firstEnd])
	}
	if !flipped {
		for i := 0; i < n; {
			j := i + 1
			for j < n && joined(j) {
				j++
			}
			slices.SortFunc(ents[i:j], compareIDs)
			if err := visit(ents[i:j]); err != nil {
				return false, err
			}
			i = j
		}
		return false, nil
	}
	for j := n; j > 0; {
		i := j - 1
		for i > 0 && joined(i) {
			i--
		}
		slices.SortFunc(ents[i:j], compareIDs)
		if err := visit(ents[i:j]); err != nil {
			return false, err
		}
		j = i
	}
	return true, nil
}

func minID(group []Entry) int {
	m := group[0].ID
	for _, e := range group[1:] {
		m = min(m, e.ID)
	}
	return m
}

// OrderByValues orders ids ascending by their snapped values, resolving
// multi-member tie groups through resolve and orienting the whole order
// deterministically. ids must be sorted ascending; vals[i] belongs to
// ids[i]. resolve appends the ordered group to dst and returns the
// extended slice; the group it is given holds the members in ascending id
// order and is reused after the call. OrderByValues reports whether the
// orientation step reversed the value order, so callers keeping the raw
// vector can negate it and preserve the order-ascends-with-value invariant.
func OrderByValues(ids []int, vals []float64, resolve func(dst, group []int) ([]int, error)) (ordered []int, flipped bool, err error) {
	n := len(ids)
	if n <= 1 {
		return append([]int(nil), ids...), false, nil
	}
	ents := make([]Entry, n)
	for i, id := range ids {
		ents[i] = Entry{Val: vals[i], ID: id}
	}
	ordered = make([]int, 0, n)
	var members []int
	flipped, err = VisitTieGroups(ents, func(group []Entry) error {
		switch len(group) {
		case 1:
			ordered = append(ordered, group[0].ID)
		case n:
			// The whole component snapped into one group (a near-constant
			// assignment): recursion would not terminate, so id order.
			ordered = append(ordered, ids...)
		default:
			members = members[:0]
			for _, e := range group {
				members = append(members, e.ID)
			}
			var err error
			ordered, err = resolve(ordered, members)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return ordered, flipped, nil
}
