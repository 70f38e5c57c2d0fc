package experiments

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is the small configuration whose Figure 5a, 5b, 6a and 6b
// series are frozen in testdata/figures_small.golden. Its grids still have
// degenerate λ₂ spectra (tied longest axes), so the pinned numbers cover
// the balanced mixing and the recursive tie-breaking, not just a sweep.
var goldenConfig = Config{
	Fig5aSide: 4, Fig5aDims: 4, // N = 256
	Fig5bSide: 16,
	Fig6Side:  5, Fig6Dims: 3, // N = 125
}

// goldenRelTol bounds the relative drift a pinned locality number may show.
// Every value is a rank distance or a statistic over rank distances, so a
// moved rank changes it by far more than this.
const goldenRelTol = 1e-9

// smallFigures computes the pinned figures on goldenConfig.
func smallFigures(t *testing.T) []*Figure {
	t.Helper()
	var figs []*Figure
	for _, f := range []func(Config) (*Figure, error){Figure5a, Figure5b, Figure6a, Figure6b} {
		fig, err := f(goldenConfig)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	return figs
}

// TestGoldenLocality pins the paper's locality numbers: every point of the
// small-config Figure 5a, 5b, 6a and 6b series, within goldenRelTol. A
// refactor that moves any rank of the spectral order shifts these even when
// every shape and inequality test still passes. Regenerate with -update
// only for an intended order change, and say why in CHANGES.md.
func TestGoldenLocality(t *testing.T) {
	figs := smallFigures(t)
	var got bytes.Buffer
	for _, fig := range figs {
		for _, s := range fig.Series {
			for i := range s.X {
				fmt.Fprintf(&got, "%s %s %g %s\n", fig.ID, s.Name, s.X[i], strconv.FormatFloat(s.Y[i], 'g', -1, 64))
			}
		}
	}
	path := filepath.Join("testdata", "figures_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	var wantLines []string
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		wantLines = append(wantLines, sc.Text())
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d series points, golden has %d", len(gotLines), len(wantLines))
	}
	for i, g := range gotLines {
		gk, gv := splitGolden(t, g)
		wk, wv := splitGolden(t, wantLines[i])
		if gk != wk {
			t.Fatalf("line %d: point %q, golden %q", i+1, gk, wk)
		}
		if math.Abs(gv-wv) > goldenRelTol*math.Max(1, math.Abs(wv)) {
			t.Errorf("%s: %v, golden %v", gk, gv, wv)
		}
	}

}

// splitGolden splits a golden line into its point key and its value.
func splitGolden(t *testing.T, line string) (string, float64) {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		t.Fatalf("malformed golden line %q", line)
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		t.Fatalf("malformed golden line %q: %v", line, err)
	}
	return line[:i], v
}
