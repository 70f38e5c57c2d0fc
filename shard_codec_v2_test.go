package spectrallpm_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// shardedGolden pins the sharded v2 container: the 5x3 grid in two
// UNEQUAL cells ([3,3] with 9 records at [0,0], then [2,3] with 6 at
// [3,0]), so that swapping or duplicating frames is detectable —
// equal-shaped frames would describe a different but valid index.
const shardedGolden = "index_v2_sharded_5x3.golden"

func buildShardedGolden(t testing.TB) *spectrallpm.ShardedIndex {
	t.Helper()
	sx, err := spectrallpm.BuildSharded(context.Background(), 2,
		spectrallpm.WithGrid(5, 3), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// TestShardedV2GoldenFormat pins the sharded v2 container bit-for-bit, as
// TestIndexV2GoldenFormat pins single indexes. The file doubles as a fuzz
// seed and as the pristine input of the corruption tests below.
func TestShardedV2GoldenFormat(t *testing.T) {
	var buf bytes.Buffer
	n, err := buildShardedGolden(t).WriteToV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteToV2 reported %d bytes, wrote %d", n, buf.Len())
	}
	path := filepath.Join("testdata", shardedGolden)
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
		t.Errorf("sharded v2 serialization drifted from golden file %s (%d vs %d bytes)", path, buf.Len(), len(want))
	}
}

// TestShardedRoundTripBitIdentical checks WriteToV2 -> ReadShardedV2 ->
// WriteToV2 reproduces the exact bytes for both shard kinds, and that the
// reloaded index serves identically — the build/serve split for sharded
// servers.
func TestShardedRoundTripBitIdentical(t *testing.T) {
	ctx := context.Background()
	indexes := map[string]*spectrallpm.ShardedIndex{}
	grid, err := spectrallpm.BuildSharded(ctx, 4,
		spectrallpm.WithGrid(10, 8), spectrallpm.WithSeed(3), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	indexes["grid"] = grid
	pts, err := spectrallpm.BuildSharded(ctx, 3,
		spectrallpm.WithPoints([][]int{
			{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}, {5, 5}, {5, 6}, {6, 5}, {9, 9},
		}), spectrallpm.WithSeed(2), spectrallpm.WithPageSize(2))
	if err != nil {
		t.Fatal(err)
	}
	indexes["points"] = pts
	for _, name := range sortedKeys(indexes) {
		sx := indexes[name]
		t.Run(name, func(t *testing.T) {
			var a bytes.Buffer
			n, err := sx.WriteToV2(&a)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(a.Len()) {
				t.Fatalf("WriteToV2 reported %d bytes, wrote %d", n, a.Len())
			}
			loaded, err := spectrallpm.ReadShardedV2(bytes.NewReader(a.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if _, err := loaded.WriteToV2(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("round trip not bit-identical (%d vs %d bytes)", a.Len(), b.Len())
			}
			if loaded.N() != sx.N() || loaded.NumShards() != sx.NumShards() {
				t.Fatalf("loaded %d/%d, want %d/%d", loaded.N(), loaded.NumShards(), sx.N(), sx.NumShards())
			}
			// The loaded index serves the same global order.
			for r := 0; r < sx.N(); r++ {
				p, err := sx.Point(r)
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
			b0 := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{6, 6}}
			var want, got []int
			if err := sx.ScanInto(b0, func(r int, _ []int) bool { want = append(want, r); return true }); err != nil {
				t.Fatal(err)
			}
			if err := loaded.ScanInto(b0, func(r int, _ []int) bool { got = append(got, r); return true }); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("loaded scan %v, want %v", got, want)
			}
		})
	}
}

// shardedV2 is a sharded v2 container split into its header fields, its
// shard table and its frames, so tests can tamper with any of them and
// reassemble a file whose header checksum is valid again.
type shardedV2 struct {
	kind   uint32
	rpp    uint64
	dims   []uint64
	shards []shardV2
}

type shardV2 struct {
	frame   []byte
	records uint64
	origin  []uint64
}

// parseShardedV2 splits a well-formed container (see codec_v2.go for the
// layout).
func parseShardedV2(t testing.TB, data []byte) shardedV2 {
	t.Helper()
	le := binary.LittleEndian
	if string(data[:8]) != "SLPMSX2\n" {
		t.Fatalf("not a sharded v2 container: %q", data[:8])
	}
	c := shardedV2{kind: le.Uint32(data[8:])}
	nshards := int(le.Uint32(data[12:]))
	words := func(off, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = le.Uint64(data[off+8*i:])
		}
		return out
	}
	c.rpp = le.Uint64(data[24:])
	d := int(le.Uint64(data[32:]))
	c.dims = words(40, d)
	off := 40 + 8*d
	frameLens := make([]int, nshards)
	for i := 0; i < nshards; i++ {
		frameLens[i] = int(le.Uint64(data[off:]))
		c.shards = append(c.shards, shardV2{records: le.Uint64(data[off+8:]), origin: words(off+16, d)})
		off += 16 + 8*d
	}
	for i := range c.shards {
		c.shards[i].frame = data[off : off+frameLens[i]]
		off += frameLens[i]
	}
	if off != len(data) {
		t.Fatalf("container has %d trailing bytes", len(data)-off)
	}
	return c
}

// bytes reassembles the container with a freshly computed header
// checksum, so a reader can reject it only for what the fields say.
func (c shardedV2) bytes() []byte {
	le := binary.LittleEndian
	out := []byte("SLPMSX2\n")
	out = le.AppendUint32(out, c.kind)
	out = le.AppendUint32(out, uint32(len(c.shards)))
	out = le.AppendUint32(out, 0) // header CRC, patched below
	out = le.AppendUint32(out, 0) // reserved
	out = le.AppendUint64(out, c.rpp)
	out = le.AppendUint64(out, uint64(len(c.dims)))
	for _, v := range c.dims {
		out = le.AppendUint64(out, v)
	}
	for _, s := range c.shards {
		out = le.AppendUint64(out, uint64(len(s.frame)))
		out = le.AppendUint64(out, s.records)
		for _, v := range s.origin {
			out = le.AppendUint64(out, v)
		}
	}
	le.PutUint32(out[16:], crc32.Checksum(out[24:], crc32.MakeTable(crc32.Castagnoli)))
	for _, s := range c.shards {
		out = append(out, s.frame...)
	}
	return out
}

// requireShardedRejected runs data through both sharded v2 readers and
// requires ErrCorruptIndex from each.
func requireShardedRejected(t *testing.T, data []byte) {
	t.Helper()
	if _, err := spectrallpm.ReadShardedV2(bytes.NewReader(data)); !errors.Is(err, spectrallpm.ErrCorruptIndex) {
		t.Errorf("ReadShardedV2: err = %v, want ErrCorruptIndex", err)
	}
	path := filepath.Join(t.TempDir(), "bad.slpm2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sx, err := spectrallpm.OpenMappedSharded(path)
	if err == nil {
		sx.Close()
	}
	if !errors.Is(err, spectrallpm.ErrCorruptIndex) {
		t.Errorf("OpenMappedSharded: err = %v, want ErrCorruptIndex", err)
	}
}

// TestReadShardedRejectsCorrupt drives the adversarial validation of the
// sharded container. Every tampered file carries a valid header checksum,
// so the table/frame agreement, placement and cross-shard checks are what
// must object; the "duplicated frame", "missing frame" and "overlapping
// shards" cases pass every check but the grid tiling one.
func TestReadShardedRejectsCorrupt(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", shardedGolden))
	if err != nil {
		t.Fatal(err)
	}
	pristine := parseShardedV2(t, golden)
	if !bytes.Equal(pristine.bytes(), golden) {
		t.Fatal("reassembling the golden container changes its bytes")
	}
	if len(pristine.shards) != 2 || pristine.shards[0].records != 9 || pristine.shards[1].records != 6 {
		t.Fatalf("unexpected golden layout: %+v", pristine.shards)
	}
	big, small := pristine.shards[0], pristine.shards[1]
	at := func(s shardV2, origin ...uint64) shardV2 {
		s.origin = origin
		return s
	}
	withRecords := func(s shardV2, records uint64) shardV2 {
		s.records = records
		return s
	}
	tamper := func(edit func(c *shardedV2)) []byte {
		c := pristine
		c.dims = append([]uint64(nil), pristine.dims...)
		c.shards = append([]shardV2(nil), pristine.shards...)
		edit(&c)
		return c.bytes()
	}
	single, err := os.ReadFile(filepath.Join("testdata", "index_v2_hilbert_4x4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"record count mismatch": tamper(func(c *shardedV2) { c.shards[0] = withRecords(big, 7) }),
		"records exceed grid":   tamper(func(c *shardedV2) { c.shards[1] = withRecords(small, 60) }),
		// Both cells lie inside the grid and hold 15 records, but overlap.
		"overlapping shards": tamper(func(c *shardedV2) { c.shards[1] = at(small, 0, 0) }),
		"cell outside grid":  tamper(func(c *shardedV2) { c.shards[1] = at(small, 4, 0) }),
		"shard kind mismatch": tamper(func(c *shardedV2) {
			c.kind = 1
			c.shards[1] = at(small, 0, 0)
			c.shards[0] = at(big, 0, 0)
		}),
		// The smaller cell twice: disjoint and in bounds, but 12 of the
		// grid's 15 records.
		"duplicated frame": tamper(func(c *shardedV2) { c.shards[0] = at(small, 0, 0) }),
		// Each frame keeps its table row but not its cell: the 3-wide
		// cell at x=3 leaves the 5-wide grid.
		"swapped frames": tamper(func(c *shardedV2) { c.shards[0], c.shards[1] = at(small, 0, 0), at(big, 3, 0) }),
		// Only the first cell: a valid tiling of 9 of 15 records.
		"missing frame":      tamper(func(c *shardedV2) { c.shards = c.shards[:1] }),
		"no shards":          tamper(func(c *shardedV2) { c.shards = nil }),
		"zero-record shard":  tamper(func(c *shardedV2) { c.shards[0] = withRecords(big, 0) }),
		"bad page size":      tamper(func(c *shardedV2) { c.rpp = 0 }),
		"page size mismatch": tamper(func(c *shardedV2) { c.rpp = 8 }),
		"bad dims":           tamper(func(c *shardedV2) { c.dims[1] = ^uint64(2) }), // -3
		// A 1-D header over 2-D frames.
		"origin arity": tamper(func(c *shardedV2) {
			c.dims = []uint64{15}
			c.shards[0], c.shards[1] = at(big, 0), at(small, 9)
		}),
		"single-index file": single,
	}
	// More shards than the reader accepts, declared before any table.
	tooMany := tamper(func(c *shardedV2) {})
	binary.LittleEndian.PutUint32(tooMany[12:], 4097)
	corrupt["too many shards"] = tooMany
	for _, name := range sortedKeys(corrupt) {
		data := corrupt[name]
		t.Run(name, func(t *testing.T) { requireShardedRejected(t, data) })
	}
	if _, err := spectrallpm.ReadShardedV2(bytes.NewReader(golden)); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	path := filepath.Join(t.TempDir(), shardedGolden)
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	sx, err := spectrallpm.OpenMappedSharded(path)
	if err != nil {
		t.Fatalf("pristine file rejected by the mapped open: %v", err)
	}
	sx.Close()
}

// TestReadShardedRejectsDuplicatePoints covers the point-kind cross-shard
// invariant: the same point declared by two shards is corrupt.
func TestReadShardedRejectsDuplicatePoints(t *testing.T) {
	sx, err := spectrallpm.BuildSharded(context.Background(), 2,
		spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}, {3, 3}, {3, 4}}), spectrallpm.WithPageSize(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sx.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	c := parseShardedV2(t, buf.Bytes())
	if _, err := spectrallpm.ReadShardedV2(bytes.NewReader(c.bytes())); err != nil {
		t.Fatalf("pristine point container rejected: %v", err)
	}
	// One shard's frame in place of the other, with its table row, so
	// only the cross-shard check can object.
	c.shards[1] = c.shards[0]
	requireShardedRejected(t, c.bytes())
}
