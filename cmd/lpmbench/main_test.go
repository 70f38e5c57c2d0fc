package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	// Quick experiments only; the heavyweight figures run in their own
	// package tests and in the benchmarks.
	for _, exp := range []string{"fig1", "fig3", "fig4", "fig5b", "ext-io", "ext-solvers"} {
		t.Run(exp, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := experiments.Config{Fig1Sides: []int{4, 8}}
			if err := run(&buf, exp, cfg, false, serveConfig{}); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("no output")
			}
		})
	}
}

func TestRunWithPlot(t *testing.T) {
	var buf bytes.Buffer
	cfg := experiments.Config{Fig1Sides: []int{4}}
	if err := run(&buf, "fig1", cfg, true, serveConfig{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S = Sweep") {
		t.Errorf("plot legend missing:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nosuch", experiments.Config{}, false, serveConfig{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunFig6WithSmallOverride(t *testing.T) {
	var buf bytes.Buffer
	cfg := experiments.Config{Fig6Side: 4, Fig6Dims: 3}
	if err := run(&buf, "fig6b", cfg, false, serveConfig{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FIG6B") {
		t.Error("fig6b output missing header")
	}
}

func TestRunServeExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "serve", experiments.Config{}, false, serveConfig{side: 8, qside: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SERVE") {
		t.Errorf("serve header missing:\n%s", out)
	}
	for _, name := range []string{"sweep", "hilbert", "spectral"} {
		if !strings.Contains(out, name) {
			t.Errorf("serve table missing mapping %q", name)
		}
	}
}

func TestRunServeSharded(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "serve", experiments.Config{}, false, serveConfig{side: 8, qside: 2, shards: 4}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sharded/4") {
		t.Errorf("serve table missing sharded row:\n%s", buf.String())
	}
}

// TestServeTableAligned: every row's build figure ends where the header's
// "build ms" column ends, including the longest row names (spectral/mmap,
// sharded/N).
func TestServeTableAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "serve", experiments.Config{}, false, serveConfig{side: 8, qside: 2, shards: 4}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	var header int
	for header < len(lines) && !strings.HasPrefix(lines[header], "mapping") {
		header++
	}
	if header == len(lines) {
		t.Fatalf("no table header:\n%s", buf.String())
	}
	end := strings.Index(lines[header], "build ms") + len("build ms")
	rows := 0
	for _, row := range lines[header+1:] {
		f := strings.Fields(row)
		if len(f) != 8 {
			break // the notes after the table
		}
		rows++
		if got := strings.Index(row, " "+f[1]+" ") + 1 + len(f[1]); got != end {
			t.Errorf("row %q: build figure ends at column %d, header at %d", f[0], got, end)
		}
	}
	if rows < 7 {
		t.Fatalf("only %d table rows:\n%s", rows, buf.String())
	}
}

func TestRunServeTinyGridClampsQuery(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "serve", experiments.Config{}, false, serveConfig{side: 2}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Errorf("serve printed NaN:\n%s", buf.String())
	}
}
