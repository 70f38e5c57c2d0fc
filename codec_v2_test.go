package spectrallpm_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/cluster"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// writeV2File persists ix in the v2 binary format under t.TempDir.
func writeV2File(t testing.TB, ix *spectrallpm.Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.slpm2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteToV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeShardedV2File persists sx in the sharded v2 binary format under
// t.TempDir.
func writeShardedV2File(t testing.TB, sx *spectrallpm.ShardedIndex) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sharded.slpm2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sx.WriteToV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// requireSameServing checks two indexes answer identically, rank for rank
// and metadata for metadata.
func requireSameServing(t *testing.T, want, got *spectrallpm.Index) {
	t.Helper()
	if got.N() != want.N() || got.Name() != want.Name() || got.RecordsPerPage() != want.RecordsPerPage() ||
		got.Solver() != want.Solver() || got.D() != want.D() {
		t.Fatalf("loaded index differs: %s/%d/%d vs %s/%d/%d",
			got.Name(), got.N(), got.RecordsPerPage(), want.Name(), want.N(), want.RecordsPerPage())
	}
	wl, gl := want.Lambda2(), got.Lambda2()
	if len(wl) != len(gl) {
		t.Fatalf("lambda2 arity %d vs %d", len(gl), len(wl))
	}
	for i := range wl {
		if wl[i] != gl[i] {
			t.Fatalf("lambda2[%d] = %v, want %v", i, gl[i], wl[i])
		}
	}
	for r := 0; r < want.N(); r++ {
		p, err := want.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := got.Rank(p...)
		if err != nil {
			t.Fatal(err)
		}
		if rr != r {
			t.Fatalf("rank of %v = %d, want %d", p, rr, r)
		}
	}
}

// v2TestIndexes covers both kinds and both construction flavors: grid
// (closed-form and curve), point set, and the empty point set only the
// codec path can produce.
func v2TestIndexes(t *testing.T) map[string]*spectrallpm.Index {
	t.Helper()
	empty, err := spectrallpm.ReadIndex(strings.NewReader(
		`{"format":"spectrallpm-index","version":1,"name":"spectral","dims":[1,1],"records_per_page":4,"points":[],"rank":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*spectrallpm.Index{
		"grid_hilbert": buildTestIndex(t,
			spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4)),
		"grid_spectral": buildTestIndex(t,
			spectrallpm.WithGrid(8, 8), spectrallpm.WithSeed(7), spectrallpm.WithPageSize(8)),
		"points_l": buildTestIndex(t,
			spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}}), spectrallpm.WithSeed(2)),
		"points_empty": empty,
	}
}

// TestIndexV2GoldenFormat pins the v2 binary serialization bit-for-bit —
// the files double as the fuzz seeds and as the expected output of
// importing the v1 goldens (TestIndexGoldenFormat).
func TestIndexV2GoldenFormat(t *testing.T) {
	golden := map[string]*spectrallpm.Index{
		"index_v2_hilbert_4x4.golden": buildTestIndex(t,
			spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4)),
		"index_v2_points_k2.golden": buildTestIndex(t,
			spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}}), spectrallpm.WithPageSize(2)),
	}
	for _, name := range sortedKeys(golden) {
		ix := golden[name]
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)
			var buf bytes.Buffer
			n, err := ix.WriteToV2(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteToV2 reported %d bytes, wrote %d", n, buf.Len())
			}
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("v2 serialization drifted from golden file %s (%d vs %d bytes)", path, buf.Len(), len(want))
			}
		})
	}
}

// TestIndexV2RoundTrip drives WriteToV2 through both read paths — the
// materializing reader and the mapped open — and requires each loaded
// index to serve rank-for-rank identically and to re-serialize to the
// exact same bytes (including a second generation from the mapped form,
// which proves the borrowed frame carries every bit the writer needs).
func TestIndexV2RoundTrip(t *testing.T) {
	indexes := v2TestIndexes(t)
	for _, name := range sortedKeys(indexes) {
		ix := indexes[name]
		t.Run(name, func(t *testing.T) {
			var a bytes.Buffer
			if _, err := ix.WriteToV2(&a); err != nil {
				t.Fatal(err)
			}
			read, err := spectrallpm.ReadIndexV2(bytes.NewReader(a.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			requireSameServing(t, ix, read)

			mapped, err := spectrallpm.OpenMapped(writeV2File(t, ix))
			if err != nil {
				t.Fatal(err)
			}
			requireSameServing(t, ix, mapped)
			var b bytes.Buffer
			if _, err := mapped.WriteToV2(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("mapped index re-serializes differently (%d vs %d bytes)", b.Len(), a.Len())
			}
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
			if err := mapped.Close(); err != nil {
				t.Fatal("Close is not idempotent:", err)
			}
		})
	}
}

// TestCrossVersionV1ToV2 is the import property: every v1 golden file in
// testdata, plus v1 encodings of freshly built grid and point-set flavors,
// must survive read-v1 → write-v2 → OpenMapped rank-for-rank identical —
// and the mapped index must encode back to the v1 input byte for byte, so
// the import loses no field.
func TestCrossVersionV1ToV2(t *testing.T) {
	cases := map[string][]byte{}
	goldens, err := filepath.Glob(filepath.Join("testdata", "index_v1_*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) == 0 {
		t.Fatal("no v1 golden files found")
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cases[filepath.Base(path)] = data
	}
	v2indexes := v2TestIndexes(t)
	for _, name := range sortedKeys(v2indexes) {
		data, err := spectrallpm.EncodeIndexV1ForTest(v2indexes[name])
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = data
	}
	for _, name := range sortedKeys(cases) {
		v1bytes := cases[name]
		t.Run(name, func(t *testing.T) {
			v1, err := spectrallpm.ReadIndex(bytes.NewReader(v1bytes))
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := spectrallpm.OpenMapped(writeV2File(t, v1))
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			requireSameServing(t, v1, mapped)
			back, err := spectrallpm.EncodeIndexV1ForTest(mapped)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, v1bytes) {
				t.Errorf("v1→v2→v1 not bit-identical:\n got: %s\nwant: %s", back, v1bytes)
			}
		})
	}
}

// TestShardedV2RoundTrip drives the sharded container through both read
// paths for both kinds. The reloaded index must write the original's v2
// bytes again — state-for-state equality in one comparison — and serve
// the same global order and the same box scan.
func TestShardedV2RoundTrip(t *testing.T) {
	ctx := context.Background()
	grid, err := spectrallpm.BuildSharded(ctx, 4, spectrallpm.WithGrid(8, 8), spectrallpm.WithSeed(1), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	points, err := spectrallpm.BuildSharded(ctx, 2,
		spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}, {5, 5}, {5, 6}, {9, 0}}), spectrallpm.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sharded := map[string]*spectrallpm.ShardedIndex{"grid": grid, "points": points}
	for _, name := range sortedKeys(sharded) {
		sx := sharded[name]
		t.Run(name, func(t *testing.T) {
			var v2 bytes.Buffer
			n, err := sx.WriteToV2(&v2)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(v2.Len()) {
				t.Fatalf("WriteToV2 reported %d bytes, wrote %d", n, v2.Len())
			}
			box := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{6, 6}}
			var want []int
			if err := sx.ScanInto(box, func(r int, _ []int) bool { want = append(want, r); return true }); err != nil {
				t.Fatal(err)
			}
			check := func(loaded *spectrallpm.ShardedIndex) {
				t.Helper()
				if loaded.N() != sx.N() || loaded.NumShards() != sx.NumShards() {
					t.Fatalf("loaded %d records / %d shards, want %d / %d",
						loaded.N(), loaded.NumShards(), sx.N(), sx.NumShards())
				}
				var back bytes.Buffer
				if _, err := loaded.WriteToV2(&back); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back.Bytes(), v2.Bytes()) {
					t.Error("reloaded sharded index serializes differently")
				}
				for r := 0; r < sx.N(); r++ {
					p, err := sx.Point(r)
					if err != nil {
						t.Fatal(err)
					}
					rr, err := loaded.Rank(p...)
					if err != nil {
						t.Fatal(err)
					}
					if rr != r {
						t.Fatalf("rank of %v = %d, want %d", p, rr, r)
					}
				}
				var got []int
				if err := loaded.ScanInto(box, func(r int, _ []int) bool { got = append(got, r); return true }); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("loaded scan %v, want %v", got, want)
				}
			}
			read, err := spectrallpm.ReadShardedV2(bytes.NewReader(v2.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			check(read)

			path := filepath.Join(t.TempDir(), "sharded.slpm2")
			if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := spectrallpm.OpenMappedSharded(path)
			if err != nil {
				t.Fatal(err)
			}
			check(mapped)
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenIndexAutoDetect sniffs the magic bytes: a v2 file opens mapped,
// the v1 golden falls back to the JSON importer, and a sharded v2 file is
// redirected with a useful error.
func TestOpenIndexAutoDetect(t *testing.T) {
	ix := buildTestIndex(t, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	dir := t.TempDir()

	v1path := filepath.Join("testdata", "index_v1_hilbert_4x4.golden")
	v2path := writeV2File(t, ix)

	byVersion := map[string]string{"v1": v1path, "v2": v2path}
	for _, name := range sortedKeys(byVersion) {
		path := byVersion[name]
		got, err := spectrallpm.OpenIndex(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameServing(t, ix, got)
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}

	sx, err := spectrallpm.BuildSharded(context.Background(), 2, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, "sharded.v2")
	sf, err := os.Create(spath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sx.WriteToV2(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	if _, err := spectrallpm.OpenIndex(spath); err == nil || !strings.Contains(err.Error(), "OpenMappedSharded") {
		t.Fatalf("sharded file through OpenIndex: err = %v", err)
	}
}

// TestOpenMappedRejectsCorrupt flips, truncates, and extends bytes across
// every structural region of a v2 file and requires the typed corruption
// error from the real mapped open — never a panic, never acceptance.
func TestOpenMappedRejectsCorrupt(t *testing.T) {
	ix := buildTestIndex(t, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	var buf bytes.Buffer
	if _, err := ix.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	mutate := func(off int, b byte) []byte {
		bad := append([]byte(nil), good...)
		bad[off] ^= b
		return bad
	}
	cases := map[string][]byte{
		"bad magic":            mutate(0, 0xff),
		"bad kind":             mutate(8, 0x02),
		"bad section count":    mutate(12, 0x20),
		"bad table crc":        mutate(16, 0x01),
		"reserved header":      mutate(20, 0x01),
		"bad section type":     mutate(24, 0x07),
		"bad section offset":   mutate(24+8, 0x01),
		"bad section length":   mutate(24+16, 0x08),
		"payload flip":         mutate(len(good)-4, 0x01),
		"meta flip":            mutate(24+4*32, 0x01),
		"truncated header":     good[:12],
		"truncated table":      good[:40],
		"truncated payload":    good[:len(good)-8],
		"trailing garbage":     append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0),
		"empty file":           {},
		"sharded magic, short": []byte(("SLPMSX2\n")),
	}
	for _, name := range sortedKeys(cases) {
		data := cases[name]
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.slpm2")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := spectrallpm.OpenMapped(path)
			if err == nil {
				t.Fatal("corrupted file accepted")
			}
			if !errors.Is(err, spectrallpm.ErrCorruptIndex) {
				t.Fatalf("err = %v, want ErrCorruptIndex", err)
			}
		})
	}
}

// TestOpenMappedParallelValidation drives the goroutine-chunked validation
// passes (section CRCs, inverse-permutation proof, row-layout proof) by
// lowering the size cutoff and forcing multi-worker fan-out, proving the
// parallel split accepts exactly what the serial path accepts and still
// rejects payload corruption. Running under -race also proves the chunks
// share nothing.
func TestOpenMappedParallelValidation(t *testing.T) {
	defer spectrallpm.SetV2ParallelCutoffForTest(1)()
	oldProcs := runtime.GOMAXPROCS(4) // real fan-out even on 1-CPU hosts
	defer runtime.GOMAXPROCS(oldProcs)

	built := buildTestIndex(t,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(8))
	mapped, err := spectrallpm.OpenMapped(writeV2File(t, built))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	requireSameServing(t, built, mapped)

	var buf bytes.Buffer
	if _, err := built.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[len(bad)-4] ^= 0x01 // flip a payload byte: a chunked CRC must catch it
	path := filepath.Join(t.TempDir(), "bad.slpm2")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := spectrallpm.OpenMapped(path); !errors.Is(err, spectrallpm.ErrCorruptIndex) {
		t.Fatalf("parallel validation accepted corrupt payload: %v", err)
	}
}

// FuzzOpenMapped hammers the v2 decoders — both the materializing and the
// zero-copy borrow path — with mutated frames seeded from the v2 golden
// files and hand-built corruptions of every envelope field. Invariants:
// never panic, never over-read (the borrow path serves views of exactly
// the input buffer), and anything accepted must re-serialize to bytes
// that load again identically. Sharded-magic inputs exercise the
// container decoder the same way.
func FuzzOpenMapped(f *testing.F) {
	for _, name := range []string{"index_v2_hilbert_4x4.golden", "index_v2_points_k2.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2]) // truncated mid-section
		f.Add(data[:24])          // header only
		bad := append([]byte(nil), data...)
		bad[16] ^= 1 // table CRC
		f.Add(bad)
		bad2 := append([]byte(nil), data...)
		bad2[len(bad2)-1] ^= 0x80 // payload corruption
		f.Add(bad2)
	}
	sharded, err := os.ReadFile(filepath.Join("testdata", shardedGolden))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sharded)
	f.Add(sharded[:len(sharded)/2]) // truncated mid-frame
	headerFlip := append([]byte(nil), sharded...)
	headerFlip[16] ^= 1 // header CRC
	f.Add(headerFlip)
	payloadFlip := append([]byte(nil), sharded...)
	payloadFlip[len(payloadFlip)-1] ^= 0x80 // last shard's payload
	f.Add(payloadFlip)
	f.Add([]byte("SLPMIX2\n"))
	f.Add([]byte("SLPMSX2\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, borrow := range []bool{false, true} {
			if bytes.HasPrefix(data, []byte("SLPMSX2\n")) {
				sx, err := spectrallpm.DecodeShardedV2ForTest(data, borrow)
				if err != nil {
					continue
				}
				var out bytes.Buffer
				if _, err := sx.WriteToV2(&out); err != nil {
					t.Fatalf("accepted sharded index does not re-serialize: %v", err)
				}
				if _, err := spectrallpm.ReadShardedV2(bytes.NewReader(out.Bytes())); err != nil {
					t.Fatalf("re-serialized sharded index does not load: %v", err)
				}
				continue
			}
			ix, err := spectrallpm.DecodeIndexV2ForTest(data, borrow)
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if _, err := ix.WriteToV2(&out); err != nil {
				t.Fatalf("accepted index does not re-serialize: %v", err)
			}
			again, err := spectrallpm.ReadIndexV2(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("re-serialized index does not load: %v", err)
			}
			var out2 bytes.Buffer
			if _, err := again.WriteToV2(&out2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), out2.Bytes()) {
				t.Fatal("write/read/write not stable")
			}
		}
	})
}

// TestMappedScanZeroAlloc pins the tentpole's zero-copy guarantee: an
// index served from a mapped (borrowed) frame keeps every steady-state
// serving path at zero heap allocations per op, exactly like an owned
// index — the engines cannot tell the difference.
func TestMappedScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	built := buildTestIndex(t,
		spectrallpm.WithGrid(64, 64), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(16))
	ix, err := spectrallpm.OpenMapped(writeV2File(t, built))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	box := spectrallpm.Box{Start: []int{5, 9}, Dims: []int{12, 10}}
	n := 0
	yield := func(int, []int) bool { n++; return true }
	dst := make([]spectrallpm.PageRun, 0, 64)
	paths := map[string]func(){
		"Scan": func() {
			seq, err := ix.Scan(box)
			if err != nil {
				t.Fatal(err)
			}
			seq(yield)
		},
		"ScanInto": func() {
			if err := ix.ScanInto(box, yield); err != nil {
				t.Fatal(err)
			}
		},
		"PagesInto": func() {
			var err error
			dst, err = ix.PagesInto(box, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
		},
		"QueryIO": func() {
			if _, err := ix.QueryIO(box); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, name := range sortedKeys(paths) {
		fn := paths[name]
		fn() // warm the pools
		if avg := testing.AllocsPerRun(50, fn); avg != 0 {
			t.Errorf("mapped %s allocates %.1f per op in steady state, want 0", name, avg)
		}
	}
	if n == 0 {
		t.Fatal("yield never ran")
	}
}

// TestMappedShardedScanZeroAlloc extends the mapped zero-alloc guarantee
// to the sharded planner over borrowed per-shard frames, and to the
// one-shard views a cluster worker serves through: a Scope view and the
// worker's ShardView answer the request-context surface allocation-free
// too.
func TestMappedShardedScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	built, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(32, 32), spectrallpm.WithSeed(1), spectrallpm.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	path := writeShardedV2File(t, built)
	sx, err := spectrallpm.OpenMappedSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	scoped, err := sx.Scope(1)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := cluster.OpenShardWorker(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	box := spectrallpm.Box{Start: []int{10, 11}, Dims: []int{12, 9}} // straddles shards
	n := 0
	yield := func(int, []int) bool { n++; return true }
	dst := make([]spectrallpm.PageRun, 0, 64)
	paths := map[string]func(){
		"Scan": func() {
			seq, err := sx.Scan(box)
			if err != nil {
				t.Fatal(err)
			}
			seq(yield)
		},
		"PagesInto": func() {
			var err error
			dst, err = sx.PagesInto(box, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
		},
		"QueryIO": func() {
			if _, err := sx.QueryIO(box); err != nil {
				t.Fatal(err)
			}
		},
	}
	ctx := context.Background()
	views := []struct {
		name string
		q    server.Queryable
	}{{"sharded", sx}, {"scoped", scoped}, {"worker", worker}}
	for _, v := range views {
		paths[v.name+" ScanIntoContext"] = func() {
			if err := v.q.ScanIntoContext(ctx, box, yield); err != nil {
				t.Fatal(err)
			}
		}
		paths[v.name+" PagesIntoContext"] = func() {
			var err error
			dst, err = v.q.PagesIntoContext(ctx, box, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
		}
		paths[v.name+" QueryIOContext"] = func() {
			if _, err := v.q.QueryIOContext(ctx, box); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range sortedKeys(paths) {
		fn := paths[name]
		n = 0
		fn() // warm the pools
		if strings.Contains(name, "Scan") && n == 0 {
			t.Fatalf("%s: box misses the view", name)
		}
		if avg := testing.AllocsPerRun(50, fn); avg != 0 {
			t.Errorf("mapped sharded %s allocates %.1f per op in steady state, want 0", name, avg)
		}
	}
}
