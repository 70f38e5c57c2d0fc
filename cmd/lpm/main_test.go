package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseDims(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"16,16", []int{16, 16}, false},
		{"8x8x8", []int{8, 8, 8}, false},
		{"4, 5", []int{4, 5}, false},
		{"", nil, true},
		{"a,b", nil, true},
	}
	for _, tc := range tests {
		got, err := parseDims(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseDims(%q) err = %v", tc.in, err)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseDims(%q) = %v", tc.in, got)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseDims(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestRunGridFormats(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		var buf bytes.Buffer
		if err := run(&buf, config{mapping: "hilbert", dims: "4,4", conn: 4, format: format, solver: "auto", pageSize: 64}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		out := buf.String()
		if len(out) == 0 {
			t.Fatalf("%s: empty output", format)
		}
		switch format {
		case "csv":
			if !strings.HasPrefix(out, "rank,id,coords") {
				t.Errorf("csv header missing: %q", out[:30])
			}
			if lines := strings.Count(out, "\n"); lines != 17 {
				t.Errorf("csv lines = %d, want 17", lines)
			}
		case "json":
			var rows []row
			if err := json.Unmarshal([]byte(out), &rows); err != nil {
				t.Fatalf("json invalid: %v", err)
			}
			if len(rows) != 16 {
				t.Errorf("json rows = %d", len(rows))
			}
		}
	}
}

func TestRunPointsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.txt")
	content := "# a comment\n0 0\n0 1\n1 0\n\n1 1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, config{mapping: "spectral", dims: "", points: path, conn: 4, format: "text", seed: 0, solver: "auto", pageSize: 64}); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("output lines = %d, want 4", lines)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, config{mapping: "spectral", dims: "", points: "", conn: 4, format: "text", seed: 0, solver: "auto", pageSize: 64}); err == nil {
		t.Error("no input accepted")
	}
	if err := run(&buf, config{mapping: "hilbert", dims: "4,4", conn: 5, format: "text", solver: "auto", pageSize: 64}); err == nil {
		t.Error("bad connectivity accepted")
	}
	if err := run(&buf, config{mapping: "hilbert", dims: "4,4", conn: 4, format: "yaml", solver: "auto", pageSize: 64}); err == nil {
		t.Error("bad format accepted")
	}
	if err := run(&buf, config{mapping: "nosuch", dims: "4,4", conn: 4, format: "text", solver: "auto", pageSize: 64}); err == nil {
		t.Error("bad mapping accepted")
	}
	if err := run(&buf, config{mapping: "hilbert", dims: "", points: "/nonexistent/file", conn: 4, format: "text", seed: 0, solver: "auto", pageSize: 64}); err == nil {
		t.Error("points file with curve mapping accepted")
	}
	if err := run(&buf, config{mapping: "spectral", dims: "", points: "/nonexistent/file", conn: 4, format: "text", seed: 0, solver: "auto", pageSize: 64}); err == nil {
		t.Error("missing points file accepted")
	}
}

func TestReadPointsErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(empty); err == nil {
		t.Error("empty points file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("1 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(bad); err == nil {
		t.Error("bad coordinate accepted")
	}
}

func TestRunSaveAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "order.lpmx")
	var built bytes.Buffer
	cfg := config{mapping: "spectral", dims: "6,6", conn: 4, format: "csv", solver: "auto", pageSize: 8, save: path}
	if err := run(&built, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("index not saved: %v", err)
	}
	// Serving from the saved file reproduces the build output exactly.
	var served bytes.Buffer
	if err := run(&served, config{format: "csv", load: path, solver: "auto", pageSize: 8}); err != nil {
		t.Fatal(err)
	}
	if built.String() != served.String() {
		t.Errorf("served order differs from built order:\n built: %s\nserved: %s", built.String(), served.String())
	}
}

// TestRunLoadV1Golden: -load still imports a v1 JSON file and prints the
// order it was saved with.
func TestRunLoadV1Golden(t *testing.T) {
	var built, served bytes.Buffer
	if err := run(&built, config{mapping: "hilbert", dims: "4,4", conn: 4, format: "csv", solver: "auto", pageSize: 4}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "testdata", "index_v1_hilbert_4x4.golden")
	if err := run(&served, config{format: "csv", load: golden, solver: "auto", pageSize: 4}); err != nil {
		t.Fatal(err)
	}
	if built.String() != served.String() {
		t.Errorf("v1 golden serves a different order:\n built: %s\nserved: %s", built.String(), served.String())
	}
}

func TestRunPointsSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.txt")
	if err := os.WriteFile(pts, []byte("0 0\n0 1\n1 0\n5 5\n5 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "pts.lpmx")
	var built bytes.Buffer
	if err := run(&built, config{mapping: "spectral", points: pts, conn: 4, format: "text", solver: "auto", pageSize: 2, save: idx}); err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := run(&served, config{format: "text", load: idx, solver: "auto", pageSize: 2}); err != nil {
		t.Fatal(err)
	}
	if built.String() != served.String() {
		t.Errorf("served point order differs:\n built: %s\nserved: %s", built.String(), served.String())
	}
}

func TestRunLoadRejectsConflictingSources(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, config{format: "text", load: "/tmp/x.lpmx", dims: "4,4", solver: "auto", pageSize: 64}); err == nil {
		t.Error("-load with -dims accepted")
	}
	if err := run(&buf, config{format: "text", load: "/tmp/x.lpmx", points: "pts.txt", solver: "auto", pageSize: 64}); err == nil {
		t.Error("-load with -points accepted")
	}
}
