package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// orderByValuesRef is the reference ordering OrderByValues must reproduce:
// a reflect-based stable sort of a permutation by (value, id), tie groups
// as index ranges, and a resolver that returns a fresh slice per group.
func orderByValuesRef(ids []int, vals []float64, resolve func(group []int) ([]int, error)) (ordered []int, flipped bool, err error) {
	n := len(ids)
	if n <= 1 {
		return append([]int(nil), ids...), false, nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		va, vb := vals[perm[a]], vals[perm[b]]
		if va != vb {
			return va < vb
		}
		return ids[perm[a]] < ids[perm[b]]
	})
	lo, hi := vals[perm[0]], vals[perm[n-1]]
	if hi == lo {
		return append([]int(nil), ids...), false, nil
	}
	tol := snapRelTol * (hi - lo)
	var groups [][2]int
	start := 0
	for i := 1; i < n; i++ {
		if vals[perm[i]]-vals[perm[i-1]] > tol {
			groups = append(groups, [2]int{start, i})
			start = i
		}
	}
	groups = append(groups, [2]int{start, n})
	minID := func(g [2]int) int {
		m := ids[perm[g[0]]]
		for i := g[0] + 1; i < g[1]; i++ {
			if id := ids[perm[i]]; id < m {
				m = id
			}
		}
		return m
	}
	if len(groups) >= 2 && minID(groups[len(groups)-1]) < minID(groups[0]) {
		flipped = true
		for i, j := 0, len(groups)-1; i < j; i, j = i+1, j-1 {
			groups[i], groups[j] = groups[j], groups[i]
		}
	}
	ordered = make([]int, 0, n)
	for _, g := range groups {
		size := g[1] - g[0]
		switch {
		case size == 1:
			ordered = append(ordered, ids[perm[g[0]]])
		case size == n:
			ordered = append(ordered, ids...)
		default:
			members := make([]int, size)
			for i := g[0]; i < g[1]; i++ {
				members[i-g[0]] = ids[perm[i]]
			}
			sort.Ints(members)
			resolved, err := resolve(members)
			if err != nil {
				return nil, false, err
			}
			ordered = append(ordered, resolved...)
		}
	}
	return ordered, flipped, nil
}

// scramble is a deterministic stand-in for the recursive tie-breaking: it
// rotates the group by an amount that depends on its members, so a
// resolver fed the wrong members or the wrong member order shows up in
// the output.
func scramble(group []int) []int {
	out := make([]int, 0, len(group))
	k := (group[0] + 3*len(group)) % len(group)
	out = append(out, group[k:]...)
	return append(out, group[:k]...)
}

// tieHeavyCase draws n ascending ids and values from a few levels, so
// exact ties, ties within the snap tolerance, chains of near ties, ±0 and
// singletons all occur.
func tieHeavyCase(rng *rand.Rand, n int) ([]int, []float64) {
	ids := make([]int, n)
	id := rng.Intn(3)
	for i := range ids {
		ids[i] = id
		id += 1 + rng.Intn(4)
	}
	levels := 1 + rng.Intn(n)
	vals := make([]float64, n)
	for i := range vals {
		l := rng.Intn(levels)
		switch rng.Intn(6) {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = math.Copysign(0, -1)
		case 2:
			// A near tie: well inside the snap tolerance of a unit range.
			vals[i] = float64(l) + 1e-9*float64(rng.Intn(3))
		case 3:
			// A chain link: each step is inside the tolerance, the chain
			// may not be.
			vals[i] = float64(l) + 4e-7*float64(rng.Intn(8))
		default:
			vals[i] = float64(l)
		}
	}
	return ids, vals
}

// TestOrderByValuesParity checks OrderByValues against the reference
// implementation on seeded tie-heavy inputs, in both orientations: the
// orders and the flip must be identical.
func TestOrderByValuesParity(t *testing.T) {
	resolveRef := func(group []int) ([]int, error) { return scramble(group), nil }
	resolve := func(dst, group []int) ([]int, error) { return append(dst, scramble(group)...), nil }
	check := func(name string, ids []int, vals []float64) {
		t.Helper()
		wantOrder, wantFlip, err := orderByValuesRef(ids, vals, resolveRef)
		if err != nil {
			t.Fatal(err)
		}
		got, flip, err := OrderByValues(ids, vals, resolve)
		if err != nil {
			t.Fatal(err)
		}
		if flip != wantFlip || !slices.Equal(got, wantOrder) {
			t.Fatalf("%s: ids %v vals %v\n got %v flipped %v\nwant %v flipped %v",
				name, ids, vals, got, flip, wantOrder, wantFlip)
		}
	}
	rng := rand.New(rand.NewSource(7))
	flips := 0
	for it := 0; it < 3000; it++ {
		n := 1 + rng.Intn(40)
		if it%50 == 0 {
			n = 500 + rng.Intn(500)
		}
		ids, vals := tieHeavyCase(rng, n)
		check(fmt.Sprintf("case %d", it), ids, vals)
		neg := make([]float64, n)
		for i, v := range vals {
			neg[i] = -v
		}
		check(fmt.Sprintf("case %d negated", it), ids, neg)
		if _, f, _ := OrderByValues(ids, vals, resolve); f {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("no case exercised the flipped orientation")
	}
	// Hand-picked shapes: empty, one id, a constant assignment, a
	// whole-component group that is not constant, ±0 against each other,
	// and one group of every size up to the component.
	check("empty", nil, nil)
	check("single", []int{4}, []float64{1})
	check("constant", []int{0, 1, 2, 3}, []float64{2, 2, 2, 2})
	check("whole near-constant", []int{0, 2, 5}, []float64{1, 1 + 1e-13, 1 + 2e-13})
	check("signed zeros", []int{0, 1, 2, 3}, []float64{math.Copysign(0, -1), 0, 1, math.Copysign(0, -1)})
	// Infinite values and a span that overflows to +Inf, on components
	// large enough for any size-dependent sort strategy.
	for _, c := range []struct {
		name   string
		lo, hi float64
	}{
		{"infinite values", math.Inf(-1), math.Inf(1)},
		{"+Inf only", 0, math.Inf(1)},
		{"overflowing span", -1e308, 1e308},
	} {
		ids, vals := tieHeavyCase(rng, 300)
		vals[17], vals[250] = c.lo, c.hi
		check(c.name, ids, vals)
	}
	for size := 1; size <= 12; size++ {
		n := 12
		ids := make([]int, n)
		vals := make([]float64, n)
		for i := range ids {
			ids[i] = i
			vals[i] = float64((i * 7) % n)
			if vals[i] < float64(size) {
				vals[i] = 0
			}
		}
		check(fmt.Sprintf("group of %d", size), ids, vals)
	}
}
