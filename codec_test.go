package spectrallpm_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenIndexes are the indexes the version-1 golden files hold. Both are
// byte-stable forever: the hilbert order is closed-form, and the two-point
// spectral order solves the K₂ component by its closed form (λ₂ = 2
// exactly), so no iterative solver digits appear in the files.
func goldenIndexes(t *testing.T) map[string]*spectrallpm.Index {
	t.Helper()
	return map[string]*spectrallpm.Index{
		"index_v1_hilbert_4x4.golden": buildTestIndex(t,
			spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4)),
		"index_v1_points_k2.golden": buildTestIndex(t,
			spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}}), spectrallpm.WithPageSize(2)),
	}
}

// TestIndexGoldenFormat imports each version-1 golden file, which this
// package no longer writes: the imported index must serve exactly like
// the index it was saved from, and WriteToV2 must turn it into the
// matching version-2 golden file byte for byte. The test-only v1 encoder
// must reproduce the file, so the tests that feed ReadIndex through it
// feed genuine v1 bytes.
func TestIndexGoldenFormat(t *testing.T) {
	golden := goldenIndexes(t)
	for _, name := range sortedKeys(golden) {
		built := golden[name]
		t.Run(name, func(t *testing.T) {
			v1, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			imported, err := spectrallpm.ReadIndex(bytes.NewReader(v1))
			if err != nil {
				t.Fatal(err)
			}
			requireSameServing(t, built, imported)
			var v2 bytes.Buffer
			if _, err := imported.WriteToV2(&v2); err != nil {
				t.Fatal(err)
			}
			v2path := filepath.Join("testdata", strings.Replace(name, "index_v1_", "index_v2_", 1))
			want, err := os.ReadFile(v2path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2.Bytes(), want) {
				t.Errorf("imported %s writes v2 bytes that differ from %s (%d vs %d bytes)", name, v2path, v2.Len(), len(want))
			}
			encoded, err := spectrallpm.EncodeIndexV1ForTest(built)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encoded, v1) {
				t.Errorf("test-only v1 encoder drifted from %s:\n got: %s\nwant: %s", name, encoded, v1)
			}
		})
	}
}

// TestIndexRoundTripBitIdentical checks that ReadIndex imports every field
// of the version-1 format: v1 bytes -> ReadIndex -> v1 bytes reproduces
// the input exactly, including for a solver-produced spectral index whose
// λ₂ is a nontrivial float.
func TestIndexRoundTripBitIdentical(t *testing.T) {
	indexes := goldenIndexes(t)
	indexes["spectral_8x8"] = buildTestIndex(t, spectrallpm.WithGrid(8, 8), spectrallpm.WithSeed(7), spectrallpm.WithPageSize(8))
	indexes["spectral_diag_weighted"] = buildTestIndex(t,
		spectrallpm.WithGrid(5, 5), spectrallpm.WithSeed(3),
		spectrallpm.WithConnectivity(spectrallpm.Diagonal),
		spectrallpm.WithEdgeWeights(func(u, v int) float64 { return 2 }),
		spectrallpm.WithAffinity(spectrallpm.AffinityEdge{U: 0, V: 24, Weight: 5}))
	indexes["points_l"] = buildTestIndex(t,
		spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}}), spectrallpm.WithSeed(2))
	for _, name := range sortedKeys(indexes) {
		ix := indexes[name]
		t.Run(name, func(t *testing.T) {
			a, err := spectrallpm.EncodeIndexV1ForTest(ix)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := spectrallpm.ReadIndex(bytes.NewReader(a))
			if err != nil {
				t.Fatal(err)
			}
			b, err := spectrallpm.EncodeIndexV1ForTest(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("round trip not bit-identical:\n  a: %s\n  b: %s", a, b)
			}
			// The loaded index serves the same ranks.
			if loaded.N() != ix.N() || loaded.Name() != ix.Name() || loaded.RecordsPerPage() != ix.RecordsPerPage() {
				t.Fatalf("loaded index differs: %s/%d vs %s/%d", loaded.Name(), loaded.N(), ix.Name(), ix.N())
			}
			for r := 0; r < ix.N(); r++ {
				p, err := ix.Point(r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.Rank(p...)
				if err != nil {
					t.Fatal(err)
				}
				if got != r {
					t.Fatalf("loaded rank of %v = %d, want %d", p, got, r)
				}
			}
		})
	}
}

func TestReadIndexRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      "not json\n",
		"wrong format":  `{"format":"something-else","version":1,"name":"x","dims":[2],"records_per_page":1,"rank":[0,1]}`,
		"future":        `{"format":"spectrallpm-index","version":99,"name":"x","dims":[2],"records_per_page":1,"rank":[0,1]}`,
		"no name":       `{"format":"spectrallpm-index","version":1,"dims":[2],"records_per_page":1,"rank":[0,1]}`,
		"bad dims":      `{"format":"spectrallpm-index","version":1,"name":"x","dims":[0],"records_per_page":1,"rank":[]}`,
		"bad page size": `{"format":"spectrallpm-index","version":1,"name":"x","dims":[2],"records_per_page":0,"rank":[0,1]}`,
	}
	for _, name := range sortedKeys(cases) {
		data := cases[name]
		t.Run(name, func(t *testing.T) {
			if _, err := spectrallpm.ReadIndex(strings.NewReader(data)); err == nil {
				t.Error("malformed index accepted")
			}
		})
	}
	if _, err := spectrallpm.ReadIndex(strings.NewReader(
		`{"format":"spectrallpm-index","version":1,"name":"x","dims":[2,2],"records_per_page":1,"rank":[0,1,2,2]}`)); !errors.Is(err, spectrallpm.ErrNotPermutation) {
		t.Errorf("dup rank err = %v", err)
	}
	if _, err := spectrallpm.ReadIndex(strings.NewReader(
		`{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[1,2],"records_per_page":1,"points":[[0,0],[0,1]],"rank":[1,1]}`)); !errors.Is(err, spectrallpm.ErrNotPermutation) {
		t.Errorf("dup point rank err = %v", err)
	}
	if _, err := spectrallpm.ReadIndex(strings.NewReader(
		`{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[1,2],"records_per_page":1,"points":[[0,0],[0,5]],"rank":[0,1]}`)); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("out-of-grid point err = %v", err)
	}
}

// TestReadIndexEmptyPointSet pins that an externally produced file with an
// empty point array still loads (as it did before the R-tree path) and that
// every query surface answers empty rather than dereferencing a nil tree.
func TestReadIndexEmptyPointSet(t *testing.T) {
	ix, err := spectrallpm.ReadIndex(strings.NewReader(
		`{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[1,1],"records_per_page":4,"points":[],"rank":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 0 {
		t.Fatalf("N = %d", ix.N())
	}
	box := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{5, 5}}
	if err := ix.ScanInto(box, func(int, []int) bool { t.Fatal("yield on empty index"); return false }); err != nil {
		t.Fatal(err)
	}
	io, err := ix.QueryIO(box)
	if err != nil || io != (spectrallpm.IOStats{}) {
		t.Fatalf("io = %+v, %v", io, err)
	}
	if runs, err := ix.Pages(box); err != nil || len(runs) != 0 {
		t.Fatalf("runs = %v, %v", runs, err)
	}
}

// TestEmptyPointSetRoundTrip: "points" decodes through a pointer, so an
// imported file with an empty point array stays an empty point-set index
// (a plain slice would demote it to the full-grid path, where an empty
// rank permutation cannot cover the grid), and it keeps that kind through
// the v2 writer and reader.
func TestEmptyPointSetRoundTrip(t *testing.T) {
	const file = `{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[1,1],"records_per_page":4,"points":[],"rank":[]}` + "\n"
	ix, err := spectrallpm.ReadIndex(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := ix.WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	reloaded, err := spectrallpm.ReadIndexV2(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("empty point-set index does not reload: %v", err)
	}
	if reloaded.N() != 0 || reloaded.Points() == nil {
		t.Fatalf("reloaded index is not an empty point set: N=%d points=%v", reloaded.N(), reloaded.Points())
	}
	for _, got := range []*spectrallpm.Index{ix, reloaded} {
		encoded, err := spectrallpm.EncodeIndexV1ForTest(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(encoded) != file {
			t.Fatalf("empty point set lost its kind:\n got: %s\nwant: %s", encoded, file)
		}
	}
}

// TestReadIndexHardening drives the adversarial-file validation: inputs
// that decode but are structurally hostile must be rejected with typed
// errors — never panic, never over-allocate, never load inconsistently.
func TestReadIndexHardening(t *testing.T) {
	cases := map[string]string{
		"dims product overflow": `{"format":"spectrallpm-index","version":1,"name":"x","dims":[2305843009213693952,2305843009213693952],"records_per_page":1,"rank":[0,1]}`,
		"negative page size":    `{"format":"spectrallpm-index","version":1,"name":"x","dims":[2],"records_per_page":-3,"rank":[0,1]}`,
		"zero page size":        `{"format":"spectrallpm-index","version":1,"name":"x","dims":[2],"records_per_page":0,"rank":[0,1]}`,
		"excess lambda2 grid":   `{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[2],"records_per_page":1,"lambda2":[1,1],"rank":[0,1]}`,
		"excess lambda2 points": `{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[1,2],"records_per_page":1,"lambda2":[1,1,1],"points":[[0,0],[0,1]],"rank":[0,1]}`,
		"negative lambda2":      `{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[2],"records_per_page":1,"lambda2":[-0.5],"rank":[0,1]}`,
	}
	for _, name := range sortedKeys(cases) {
		data := cases[name]
		t.Run(name, func(t *testing.T) {
			_, err := spectrallpm.ReadIndex(strings.NewReader(data))
			if err == nil {
				t.Fatal("hostile index accepted")
			}
			if !errors.Is(err, spectrallpm.ErrCorruptIndex) {
				t.Fatalf("err = %v, want ErrCorruptIndex", err)
			}
		})
	}
	// The typed error is reported before any pager is constructed, so even
	// a page size that would overflow page-count arithmetic is harmless.
	huge := `{"format":"spectrallpm-index","version":1,"name":"x","dims":[2],"records_per_page":9223372036854775807,"rank":[0,1]}`
	if ix, err := spectrallpm.ReadIndex(strings.NewReader(huge)); err != nil {
		t.Fatalf("max page size rejected: %v", err)
	} else if ix.NumPages() != 1 {
		t.Fatalf("page rounding wrapped: %d pages", ix.NumPages())
	}
}

// FuzzReadIndex hammers the v1 importer with mutated inputs seeded from
// the golden files plus truncated and corrupted variants. Two invariants:
// ReadIndex never panics, and anything it accepts survives WriteToV2 and
// ReadIndexV2 with the same N and the same rank and point at every rank.
func FuzzReadIndex(f *testing.F) {
	for _, name := range []string{"index_v1_hilbert_4x4.golden", "index_v1_points_k2.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])                                     // truncated
		f.Add(bytes.Replace(data, []byte("rank"), []byte("rnak"), 1)) // corrupted key
		f.Add(bytes.Replace(data, []byte("1"), []byte("-1"), 2))      // corrupted values
	}
	f.Add([]byte(`{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[1,1],"records_per_page":4,"points":[],"rank":[]}`))
	f.Add([]byte(`{"format":"spectrallpm-index","version":1,"name":"x","dims":[99999999,99999999],"records_per_page":1,"rank":[0]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := spectrallpm.ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := ix.WriteToV2(&out); err != nil {
			t.Fatalf("accepted index does not write as v2: %v", err)
		}
		again, err := spectrallpm.ReadIndexV2(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("v2 copy of an accepted index does not load: %v", err)
		}
		if again.N() != ix.N() {
			t.Fatalf("v2 copy holds %d records, import %d", again.N(), ix.N())
		}
		for r := 0; r < ix.N(); r++ {
			p, err := ix.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			q, err := again.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p, q) {
				t.Fatalf("rank %d: v2 copy holds point %v, import %v", r, q, p)
			}
			got, err := again.Rank(p...)
			if err != nil {
				t.Fatal(err)
			}
			if got != r {
				t.Fatalf("v2 copy ranks %v at %d, import at %d", p, got, r)
			}
		}
	})
}

// TestBuildServeSplit is the ISSUE's motivating scenario end to end: build
// once, persist, load in a fresh "server", serve concurrently — without a
// second eigensolve.
func TestBuildServeSplit(t *testing.T) {
	built, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(9, 9), spectrallpm.WithSeed(5), spectrallpm.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := built.WriteToV2(&file); err != nil {
		t.Fatal(err)
	}
	server, err := spectrallpm.ReadIndexV2(&file)
	if err != nil {
		t.Fatal(err)
	}
	if l2 := server.Lambda2(); len(l2) != 1 || l2[0] != built.Lambda2()[0] {
		t.Fatalf("lambda2 not preserved: %v vs %v", l2, built.Lambda2())
	}
	io, err := server.QueryIO(spectrallpm.Box{Start: []int{2, 2}, Dims: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if io.Pages < 1 || io.Seeks < 1 || io.SpanPages < io.Pages {
		t.Fatalf("implausible IO stats %+v", io)
	}
}
