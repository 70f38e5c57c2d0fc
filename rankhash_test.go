package spectrallpm_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// rankHashCase names one order whose rank array is pinned by hash.
type rankHashCase struct {
	name  string
	ranks func(t *testing.T) []int
}

// builtRanks builds an index with the given options and returns its rank
// array: rank[v] for every grid vertex v in row-major order, or rank[i]
// for the i-th input point of a point-set index.
func builtRanks(opts ...spectrallpm.BuildOption) func(t *testing.T) []int {
	return func(t *testing.T) []int {
		t.Helper()
		ix, err := spectrallpm.Build(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if m := ix.Mapping(); m != nil {
			return m.Ranks()
		}
		pts := ix.Points()
		rank := make([]int, len(pts))
		for i, p := range pts {
			if rank[i], err = ix.Rank(p...); err != nil {
				t.Fatal(err)
			}
		}
		return rank
	}
}

// figureRanks returns the spectral ranks the figure experiments compute
// (internal/experiments orders every grid through order.New with the
// default solver options, not through the closed form).
func figureRanks(dims ...int) func(t *testing.T) []int {
	return func(t *testing.T) []int {
		t.Helper()
		m, err := order.New("spectral", spectrallpm.MustGrid(dims...), order.SpectralConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Ranks()
	}
}

// rankHashCases lists every default order the paper's figures, the tests
// and the repository benchmark build: the worked examples of Figures 3
// and 4, the Figure 5/6 sweep grids on both the closed-form and the
// figure (eigensolver) path, the grids the tests and benchmarks serve, and
// the benchmark's clustered point set.
func rankHashCases() []rankHashCase {
	grid := func(dims ...int) rankHashCase {
		parts := make([]string, len(dims))
		for i, d := range dims {
			parts[i] = fmt.Sprint(d)
		}
		return rankHashCase{"grid/" + strings.Join(parts, "x"), builtRanks(spectrallpm.WithGrid(dims...))}
	}
	return []rankHashCase{
		grid(3, 3),
		grid(4, 4),
		{"grid/4x4/diagonal", builtRanks(spectrallpm.WithGrid(4, 4), spectrallpm.WithConnectivity(spectrallpm.Diagonal))},
		grid(4, 4, 4, 4, 4),
		grid(16, 16),
		grid(6, 6, 6, 6),
		{"figure/3x3", figureRanks(3, 3)},
		{"figure/4x4", figureRanks(4, 4)},
		{"figure/4x4x4x4x4", figureRanks(4, 4, 4, 4, 4)},
		{"figure/16x16", figureRanks(16, 16)},
		{"figure/6x6x6x6", figureRanks(6, 6, 6, 6)},
		grid(8, 8),
		grid(12, 7),
		grid(512, 384),
		grid(512, 512),
		grid(1024, 1024),
		grid(1024, 768),
		grid(64, 64, 64),
		{"points/clustered-1024x1024-12x1000r40-seed1", func(t *testing.T) []int {
			t.Helper()
			pts, err := workload.ClusteredPoints(spectrallpm.MustGrid(1024, 1024), 12, 1000, 40, 1)
			if err != nil {
				t.Fatal(err)
			}
			return builtRanks(spectrallpm.WithPoints(pts))(t)
		}},
	}
}

// hashRanks is the SHA-256 of the rank array, each rank as a
// little-endian uint64.
func hashRanks(rank []int) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rank {
		binary.LittleEndian.PutUint64(b[:], uint64(r))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRankHashes pins the rank arrays of the paper's orders, so a
// refactor that moves any rank fails here even when every shape and
// inequality test still passes. Regenerate with -update only for an
// intended order change, and say why in CHANGES.md.
func TestGoldenRankHashes(t *testing.T) {
	var got bytes.Buffer
	for _, c := range rankHashCases() {
		rank := c.ranks(t)
		fmt.Fprintf(&got, "%s %d %s\n", c.name, len(rank), hashRanks(rank))
	}
	path := filepath.Join("testdata", "rank_hashes.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("rank hash drifted:\n got: %s\nwant: %s", g, w)
		}
	}
}
