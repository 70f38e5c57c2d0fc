package spectrallpm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/serve"
)

// The sharded v2 container: a checksummed header and shard table followed
// by each shard's single-index v2 frame, consecutive and 8-aligned (see
// codec_v2.go for the full layout). Frames stream one at a time through a
// reusable section buffer in both directions — the writer measures each
// frame before emitting the table, so neither path materializes more than
// one shard beyond the output itself. Congruent grid shards share one
// *Index in memory; on disk each shard still gets its own (identical)
// frame, keeping frame slicing trivial for the reader.
//
// The reader treats the file as adversarial: beyond each frame's own v2
// validation it checks that the table and the frames agree (record counts,
// page sizes, shard kind), that grid shards tile the declared global grid
// exactly — pairwise-disjoint cells whose volumes sum to the grid size —
// and that point shards stay inside the global bounding box and never
// declare the same point twice across shards. Violations return errors
// matching ErrCorruptIndex.

// maxShardCount bounds the per-shard table an untrusted header can make the
// reader allocate and the O(shards²) tiling check it can make the reader
// run.
const maxShardCount = 4096

// WriteToV2 serializes the sharded index in the version-2 binary format,
// deterministically, streaming shard frames one at a time.
func (sx *ShardedIndex) WriteToV2(w io.Writer) (int64, error) {
	d := sx.grid.D()
	frames := make([]*v2frame, len(sx.shards))
	measured := make(map[*Index]*v2frame, len(sx.shards))
	var buf []byte
	for i, ix := range sx.shards {
		f := measured[ix]
		if f == nil {
			f = ix.v2Frame()
			buf = f.measure(buf)
			measured[ix] = f
		}
		frames[i] = f
	}
	hdr := make([]byte, 0, v2ShardedHeaderSize+8+8*d+len(sx.shards)*(16+8*d))
	hdr = append(hdr, magicShardedV2...)
	kind := uint32(v2KindGrid)
	if sx.points {
		kind = v2KindPoints
	}
	hdr = appendU32(hdr, kind)
	hdr = appendU32(hdr, uint32(len(sx.shards)))
	crcPos := len(hdr)
	hdr = appendU32(hdr, 0) // table CRC, patched below
	hdr = appendU32(hdr, 0) // reserved
	crcFrom := len(hdr)
	hdr = appendU64(hdr, uint64(sx.pager.RecordsPerPage()))
	hdr = appendU64(hdr, uint64(d))
	hdr = appendIntsU64(hdr, sx.grid.Dims())
	for i, ix := range sx.shards {
		hdr = appendU64(hdr, uint64(frames[i].size()))
		hdr = appendU64(hdr, uint64(ix.N()))
		if sx.points {
			for j := 0; j < d; j++ {
				hdr = appendU64(hdr, 0)
			}
		} else {
			hdr = appendIntsU64(hdr, sx.origin[i])
		}
	}
	binary.LittleEndian.PutUint32(hdr[crcPos:], crc32.Checksum(hdr[crcFrom:], castagnoli))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, fmt.Errorf("spectrallpm: encode sharded v2 index: %w", err)
	}
	for i := range sx.shards {
		var fn int64
		fn, buf, err = frames[i].writeTo(w, buf)
		total += fn
		if err != nil {
			return total, fmt.Errorf("spectrallpm: shard %d: %w", i, err)
		}
	}
	return total, nil
}

func errShardedV2(format string, args ...any) error {
	return fmt.Errorf("spectrallpm: sharded v2 index: "+format+": %w", append(args, ErrCorruptIndex)...)
}

// decodeShardedV2 decodes (or adopts in place) a sharded v2 container,
// applying the cross-shard hardening: header/frame agreement, exact grid
// tiling, and point-shard disjointness.
func decodeShardedV2(data []byte, borrow bool) (*ShardedIndex, error) {
	if len(data) < v2ShardedHeaderSize {
		return nil, errShardedV2("%d bytes is shorter than the header", len(data))
	}
	if string(data[:8]) != magicShardedV2 {
		return nil, errShardedV2("bad magic %q", data[:8])
	}
	kind := binary.LittleEndian.Uint32(data[8:])
	if kind != v2KindGrid && kind != v2KindPoints {
		return nil, errShardedV2("unknown kind %d", kind)
	}
	points := kind == v2KindPoints
	nshards := binary.LittleEndian.Uint32(data[12:])
	if nshards == 0 || nshards > maxShardCount {
		return nil, errShardedV2("shard count %d outside [1,%d]", nshards, maxShardCount)
	}
	if binary.LittleEndian.Uint32(data[20:]) != 0 {
		return nil, errShardedV2("nonzero reserved header field")
	}
	c := v2cursor{b: data[24:]}
	rpp := c.nonNegInt("records per page")
	d := c.count("dimension", 8)
	dims := c.ints("dims", d)
	frameLens := make([]uint64, 0, nshards)
	records := make([]int, 0, nshards)
	origins := make([][]int, 0, nshards)
	for i := 0; i < int(nshards) && c.err == nil; i++ {
		frameLens = append(frameLens, c.u64("frame length"))
		records = append(records, c.nonNegInt("record count"))
		origins = append(origins, c.ints("origin", d))
	}
	if c.err != nil {
		return nil, c.err
	}
	framesStart := len(data) - len(c.b)
	if got, want := crc32.Checksum(data[24:framesStart], castagnoli), binary.LittleEndian.Uint32(data[16:]); got != want {
		return nil, errShardedV2("header checksum %08x, want %08x", got, want)
	}
	if rpp < 1 {
		return nil, errShardedV2("records per page %d < 1", rpp)
	}
	grid, err := graph.NewGrid(dims...)
	if err != nil {
		return nil, fmt.Errorf("spectrallpm: sharded v2 index dims: %w (%w)", err, ErrCorruptIndex)
	}
	// Bound the record totals by the global grid before decoding any
	// frame: distinct points on the bounding grid cannot outnumber its
	// cells, so the running total also cannot overflow.
	total := 0
	for i, rec := range records {
		if rec < 1 {
			return nil, errShardedV2("shard %d declares %d records", i, rec)
		}
		if rec > grid.Size()-total {
			return nil, errShardedV2("shard records exceed the %d-point global grid", grid.Size())
		}
		total += rec
	}
	sx := &ShardedIndex{grid: grid, points: points}
	rest := data[framesStart:]
	for i := 0; i < int(nshards); i++ {
		fl := frameLens[i]
		if fl > uint64(len(rest)) {
			return nil, errShardedV2("shard %d frame length %d overruns the file", i, fl)
		}
		frame := rest[:fl]
		rest = rest[fl:]
		ix, err := decodeIndexV2(frame, borrow)
		if err != nil {
			return nil, fmt.Errorf("spectrallpm: shard %d: %w", i, err)
		}
		if (ix.mapping == nil) != points {
			return nil, errShardedV2("shard %d kind disagrees with header", i)
		}
		if ix.N() != records[i] {
			return nil, errShardedV2("shard %d holds %d records, header declares %d", i, ix.N(), records[i])
		}
		if ix.RecordsPerPage() != rpp {
			return nil, errShardedV2("shard %d page size %d disagrees with header %d", i, ix.RecordsPerPage(), rpp)
		}
		if points {
			// Point shards carry global coordinates; the table slot is
			// canonical zero padding, never a translation.
			for _, o := range origins[i] {
				if o != 0 {
					return nil, errShardedV2("shard %d: point shard declares an origin", i)
				}
			}
		}
		lo, hi, org, err := shardPlacement(grid, origins[i], ix, points)
		if err != nil {
			return nil, fmt.Errorf("spectrallpm: shard %d: %w", i, err)
		}
		sx.shards = append(sx.shards, ix)
		sx.origin = append(sx.origin, org)
		sx.lo = append(sx.lo, lo)
		sx.hi = append(sx.hi, hi)
	}
	if len(rest) != 0 {
		return nil, errShardedV2("%d trailing bytes after the last shard frame", len(rest))
	}
	if points {
		if err := checkPointShardsDisjoint(grid, sx.shards); err != nil {
			return nil, err
		}
	} else {
		if err := checkGridShardsTile(grid, sx, total); err != nil {
			return nil, err
		}
	}
	return finishSharded(sx, rpp)
}

// ReadShardedV2 loads a sharded v2 index from a stream, materializing
// every shard into owned memory.
func ReadShardedV2(r io.Reader) (*ShardedIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spectrallpm: read sharded v2 index: %w", err)
	}
	return decodeShardedV2(data, false)
}

// OpenMappedSharded opens a sharded v2 index file for serving by mapping
// it read-only, exactly as OpenMapped does for single indexes: every
// shard's frame is validated and then served in place. Close the returned
// index to release the mapping (the per-shard Indexes share it and must
// not outlive it). Hosts that cannot serve in place materialize instead.
func OpenMappedSharded(path string) (*ShardedIndex, error) {
	data, unmap, err := mapWhole(path)
	if err != nil {
		return nil, err
	}
	sx, err := decodeShardedV2(data, unmap != nil)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	if unmap != nil {
		// One Lifecycle guards the single shared mapping: the composite
		// index and every shard Index borrow from it, so queries issued
		// directly against a Shard(i) are counted too. Each core re-arms
		// to pick the lifecycle up. Congruent shards may share an *Index;
		// assigning the same lifecycle twice is harmless.
		sx.lc = serve.NewLifecycle()
		sx.initCore()
		for _, ix := range sx.shards {
			ix.lc = sx.lc
			ix.initCore()
		}
		sx.closeFn = unmap
	}
	return sx, nil
}

// shardPlacement derives one shard's bounding box and coordinate
// translation from its declared origin and its loaded index, validating it
// against the global grid. A point shard's origin is not read: its points
// carry global coordinates, and the decoder has already rejected a nonzero
// one.
func shardPlacement(grid *graph.Grid, declaredOrigin []int, ix *Index, points bool) (lo, hi, origin []int, err error) {
	d := grid.D()
	dims := grid.Dims()
	shardDims := ix.grid.Dims()
	if len(shardDims) != d {
		return nil, nil, nil, fmt.Errorf("shard arity %d, global %d: %w", len(shardDims), d, ErrCorruptIndex)
	}
	if points {
		for j, s := range shardDims {
			if s > dims[j] {
				return nil, nil, nil, fmt.Errorf("shard bounding grid %v exceeds global %v: %w", shardDims, dims, ErrCorruptIndex)
			}
		}
		lo, hi = pointBounds(ix.pts, d)
		return lo, hi, make([]int, d), nil
	}
	if len(declaredOrigin) != d {
		return nil, nil, nil, fmt.Errorf("grid shard origin arity %d, want %d: %w", len(declaredOrigin), d, ErrCorruptIndex)
	}
	lo = append([]int(nil), declaredOrigin...)
	hi = make([]int, d)
	for j := range hi {
		if lo[j] < 0 || lo[j]+shardDims[j] > dims[j] {
			return nil, nil, nil, fmt.Errorf("shard cell %v+%v exceeds grid %v: %w", lo, shardDims, dims, ErrCorruptIndex)
		}
		hi[j] = lo[j] + shardDims[j] - 1
	}
	return lo, hi, lo, nil
}

// checkGridShardsTile verifies the loaded cells partition the global grid
// exactly: volumes sum to the grid size and no two cells overlap. Together
// those two facts imply a perfect tiling — every cell is covered exactly
// once — which Rank and the query planner rely on.
func checkGridShardsTile(grid *graph.Grid, sx *ShardedIndex, total int) error {
	if total != grid.Size() {
		return fmt.Errorf("spectrallpm: shards hold %d records, grid has %d points: %w", total, grid.Size(), ErrCorruptIndex)
	}
	for i := range sx.shards {
		for j := i + 1; j < len(sx.shards); j++ {
			overlap := true
			for a := range sx.lo[i] {
				if sx.lo[i][a] > sx.hi[j][a] || sx.lo[j][a] > sx.hi[i][a] {
					overlap = false
					break
				}
			}
			if overlap {
				return fmt.Errorf("spectrallpm: shards %d and %d overlap: %w", i, j, ErrCorruptIndex)
			}
		}
	}
	return nil
}

// checkPointShardsDisjoint rejects files where two shards declare the same
// point — the planner would double-report it and Rank would be ambiguous.
func checkPointShardsDisjoint(grid *graph.Grid, shards []*Index) error {
	total := 0
	for _, ix := range shards {
		total += ix.N()
	}
	ids := make([]int, 0, total)
	for _, ix := range shards {
		for _, p := range ix.pts {
			ids = append(ids, grid.ID(p))
		}
	}
	slices.Sort(ids)
	for k := 1; k < len(ids); k++ {
		if ids[k] == ids[k-1] {
			return fmt.Errorf("spectrallpm: the same point appears in two shards: %w", ErrCorruptIndex)
		}
	}
	return nil
}
