package spectrallpm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/rtree"
	"github.com/spectral-lpm/spectrallpm/internal/serve"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

// The version-2 binary index format — the one format this package writes
// (ReadIndex still imports the older v1 JSON files). A v2 file is a
// sequence of fixed-width little-endian sections laid out so the serving
// engines can operate on the raw bytes in place: every section sits at an
// 8-aligned offset, every array element is a 64-bit word, and the file
// carries exactly the flat frame the engines consume (the rank and inverse
// permutations, the presorted row-run layout, the flat point table, the
// packed R-tree rectangles). On a little-endian 64-bit host OpenMapped
// serves queries straight from the mapped region without decoding
// anything; elsewhere ReadIndexV2 materializes the same sections portably.
//
// Single-index frame layout:
//
//	header (24 bytes):
//	  [0:8)   magic "SLPMIX2\n"
//	  [8:12)  kind: 0 = full grid, 1 = point set
//	  [12:16) section count
//	  [16:20) CRC32C of the section table
//	  [20:24) reserved (zero)
//	section table (32 bytes per section):
//	  [0:4)   section type   [4:8)   reserved (zero)
//	  [8:16)  byte offset    [16:24) byte length
//	  [24:28) CRC32C of the payload   [28:32) reserved (zero)
//	payloads, consecutive and 8-aligned, immediately after the table.
//
// The layout is canonical: sections appear in a fixed order per kind
// (META, RANK, VERT, then ROWS for grids or POINTS [+ RTREE] for point
// sets), offsets are consecutive with no gaps, and lengths are multiples
// of 8 — so a frame's bytes are a pure function of the index and
// WriteToV2 is deterministic. Readers verify the table CRC, every section
// CRC, and the canonical layout before touching any payload; violations
// return errors matching ErrCorruptIndex. Payload contents are then
// proven before serving: rank/vert must be inverse permutations, the row
// layout must reconstruct exactly from the rank array (storage.CheckRows),
// and persisted R-tree rectangles must equal a bottom-up recomputation —
// so a mapped index can borrow the bytes with no trust in the file.
//
// The sharded container frames per-shard v2 indexes:
//
//	header (32 bytes): magic "SLPMSX2\n", kind, shard count, CRC32C of
//	  [24, framesStart), reserved, records-per-page (u64)
//	global meta: d, dims[d]  (u64 each)
//	shard table: per shard, frame length, record count, origin[d]
//	frames: each shard's single-index v2 frame, consecutive.
//
// Shard frames are written (and read) one at a time, so neither codec
// path ever holds more than one shard's sections in memory beyond the
// output itself.
const (
	magicIndexV2   = "SLPMIX2\n"
	magicShardedV2 = "SLPMSX2\n"

	v2KindGrid   = 0
	v2KindPoints = 1

	v2HeaderSize        = 24
	v2SectionEntrySize  = 32
	v2ShardedHeaderSize = 32

	secMeta   = 1 // dims, counts, λ₂, provenance strings
	secRank   = 2 // rank[id], n × u64
	secVert   = 3 // id at each rank, n × u64
	secRows   = 4 // presorted row-run layout, n × u64 (grids)
	secPoints = 5 // flat point coordinates, n*d × u64 (point sets)
	secRTree  = 6 // fanout, node count, per-node MBRs (point sets, n > 0)

	// v2MaxSections bounds the table an untrusted header can make the
	// reader walk; both kinds use at most 5 sections.
	v2MaxSections = 5
)

// castagnoli is the CRC32C polynomial table shared by all v2 checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxIntU64 is the largest u64 that fits the host int — the guard every
// decoded count passes before becoming a slice length or index.
const maxIntU64 = uint64(^uint(0) >> 1)

// --- encoding ---

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendIntsU64(b []byte, vs []int) []byte {
	for _, v := range vs {
		b = appendU64(b, uint64(v))
	}
	return b
}

func appendU64s(b []byte, vs []uint64) []byte {
	for _, v := range vs {
		b = appendU64(b, v)
	}
	return b
}

// appendStrV2 writes a length-prefixed string (u64 length, raw bytes).
func appendStrV2(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...)
}

// pad8 zero-pads to the next 8-byte boundary, keeping every section
// length a multiple of 8 so the consecutive-offset layout stays aligned.
func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// v2section is one section of a frame: its type tag and a generator that
// appends the payload. Generating instead of buffering lets the writer
// stream a frame with a single reusable section-sized buffer — pass one
// measures lengths and checksums, pass two emits the same bytes.
type v2section struct {
	typ uint32
	gen func(dst []byte) []byte
}

// v2frame is a measured single-index frame ready to write.
type v2frame struct {
	kind uint32
	secs []v2section
	lens []uint64
	crcs []uint32
}

// measure runs pass one: generate each section once (reusing buf) to
// record its length and CRC. Returns the grown buffer for reuse.
func (f *v2frame) measure(buf []byte) []byte {
	f.lens = make([]uint64, len(f.secs))
	f.crcs = make([]uint32, len(f.secs))
	for i, s := range f.secs {
		buf = s.gen(buf[:0])
		if len(buf)%8 != 0 {
			panic("spectrallpm: v2 section generator produced unaligned payload")
		}
		f.lens[i] = uint64(len(buf))
		f.crcs[i] = crc32.Checksum(buf, castagnoli)
	}
	return buf
}

// size returns the full frame length in bytes (header + table + payloads).
func (f *v2frame) size() int64 {
	total := int64(v2HeaderSize + v2SectionEntrySize*len(f.secs))
	for _, l := range f.lens {
		total += int64(l)
	}
	return total
}

// writeTo runs pass two: emit the header, the section table, and each
// regenerated payload. measure must have run first.
func (f *v2frame) writeTo(w io.Writer, buf []byte) (int64, []byte, error) {
	hdr := make([]byte, 0, v2HeaderSize+v2SectionEntrySize*len(f.secs))
	hdr = append(hdr, magicIndexV2...)
	hdr = appendU32(hdr, f.kind)
	hdr = appendU32(hdr, uint32(len(f.secs)))
	crcPos := len(hdr)
	hdr = appendU32(hdr, 0) // table CRC, patched below
	hdr = appendU32(hdr, 0) // reserved
	off := uint64(v2HeaderSize + v2SectionEntrySize*len(f.secs))
	for i, s := range f.secs {
		hdr = appendU32(hdr, s.typ)
		hdr = appendU32(hdr, 0)
		hdr = appendU64(hdr, off)
		hdr = appendU64(hdr, f.lens[i])
		hdr = appendU32(hdr, f.crcs[i])
		hdr = appendU32(hdr, 0)
		off += f.lens[i]
	}
	binary.LittleEndian.PutUint32(hdr[crcPos:], crc32.Checksum(hdr[v2HeaderSize:], castagnoli))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, buf, err
	}
	for _, s := range f.secs {
		buf = s.gen(buf[:0])
		n, err := w.Write(buf)
		total += int64(n)
		if err != nil {
			return total, buf, err
		}
	}
	return total, buf, nil
}

// appendMetaV2 generates the META section: scalar counts, grid dims, λ₂
// bit patterns, and the four provenance strings, zero-padded to 8 bytes.
func (ix *Index) appendMetaV2(dst []byte) []byte {
	dst = appendU64(dst, uint64(ix.grid.D()))
	dst = appendU64(dst, uint64(ix.N()))
	dst = appendU64(dst, uint64(ix.pager.RecordsPerPage()))
	dst = appendU64(dst, uint64(ix.meta.affinity))
	dst = appendU64(dst, uint64(len(ix.lambda2)))
	dst = appendIntsU64(dst, ix.grid.Dims())
	for _, l := range ix.lambda2 {
		dst = appendU64(dst, math.Float64bits(l))
	}
	dst = appendStrV2(dst, ix.name)
	dst = appendStrV2(dst, ix.meta.connectivity)
	dst = appendStrV2(dst, ix.meta.weights)
	dst = appendStrV2(dst, ix.meta.solver)
	return pad8(dst)
}

// v2Frame assembles the section list for one index.
func (ix *Index) v2Frame() *v2frame {
	if ix.mapping != nil {
		fr := ix.store.Frame()
		return &v2frame{kind: v2KindGrid, secs: []v2section{
			{secMeta, ix.appendMetaV2},
			{secRank, func(dst []byte) []byte { return appendIntsU64(dst, fr.Rank) }},
			{secVert, func(dst []byte) []byte { return appendIntsU64(dst, fr.Vert) }},
			{secRows, func(dst []byte) []byte { return appendU64s(dst, fr.Rows) }},
		}}
	}
	secs := []v2section{
		{secMeta, ix.appendMetaV2},
		{secRank, func(dst []byte) []byte { return appendIntsU64(dst, ix.rank) }},
		{secVert, func(dst []byte) []byte { return appendIntsU64(dst, ix.vert) }},
		{secPoints, func(dst []byte) []byte {
			for _, p := range ix.pts {
				dst = appendIntsU64(dst, p)
			}
			return dst
		}},
	}
	if ix.rt != nil {
		secs = append(secs, v2section{secRTree, func(dst []byte) []byte {
			dst = appendU64(dst, uint64(ix.rt.Fanout()))
			dst = appendU64(dst, uint64(ix.rt.NumNodes()))
			for _, r := range ix.rt.Rects() {
				dst = appendU64(dst, uint64(r))
			}
			return dst
		}})
	}
	return &v2frame{kind: v2KindPoints, secs: secs}
}

// WriteToV2 serializes the index in the version-2 binary format. The
// output is deterministic: the same index always produces the same bytes,
// and OpenMapped/ReadIndexV2 round-trip it rank-for-rank.
func (ix *Index) WriteToV2(w io.Writer) (int64, error) {
	f := ix.v2Frame()
	buf := f.measure(nil)
	n, _, err := f.writeTo(w, buf)
	if err != nil {
		return n, fmt.Errorf("spectrallpm: encode v2 index: %w", err)
	}
	return n, nil
}

// --- decoding ---

func errV2(format string, args ...any) error {
	return fmt.Errorf("spectrallpm: v2 index: "+format+": %w", append(args, ErrCorruptIndex)...)
}

// v2sec is one parsed section: its declared type and checksummed payload.
type v2sec struct {
	typ     uint32
	payload []byte
}

// parseV2Frame validates a frame's envelope — magic, header, section
// table CRC, canonical consecutive 8-aligned layout, per-section CRCs —
// and returns the payload slices. It never reads past len(data) and never
// allocates more than the (bounded) section list.
func parseV2Frame(data []byte) (kind uint32, secs []v2sec, err error) {
	if len(data) < v2HeaderSize {
		return 0, nil, errV2("%d bytes is shorter than the header", len(data))
	}
	if string(data[:8]) != magicIndexV2 {
		return 0, nil, errV2("bad magic %q", data[:8])
	}
	kind = binary.LittleEndian.Uint32(data[8:])
	if kind != v2KindGrid && kind != v2KindPoints {
		return 0, nil, errV2("unknown kind %d", kind)
	}
	nsect := binary.LittleEndian.Uint32(data[12:])
	if nsect == 0 || nsect > v2MaxSections {
		return 0, nil, errV2("section count %d outside [1,%d]", nsect, v2MaxSections)
	}
	if binary.LittleEndian.Uint32(data[20:]) != 0 {
		return 0, nil, errV2("nonzero reserved header field")
	}
	dataStart := v2HeaderSize + v2SectionEntrySize*int(nsect)
	if dataStart > len(data) {
		return 0, nil, errV2("section table overruns the %d-byte file", len(data))
	}
	table := data[v2HeaderSize:dataStart]
	if got, want := crc32.Checksum(table, castagnoli), binary.LittleEndian.Uint32(data[16:]); got != want {
		return 0, nil, errV2("section table checksum %08x, want %08x", got, want)
	}
	secs = make([]v2sec, nsect)
	wantCRCs := make([]uint32, nsect)
	off := uint64(dataStart)
	for i := range secs {
		e := table[i*v2SectionEntrySize:]
		secs[i].typ = binary.LittleEndian.Uint32(e)
		if binary.LittleEndian.Uint32(e[4:]) != 0 || binary.LittleEndian.Uint32(e[28:]) != 0 {
			return 0, nil, errV2("section %d: nonzero reserved field", i)
		}
		if o := binary.LittleEndian.Uint64(e[8:]); o != off {
			return 0, nil, errV2("section %d at offset %d, canonical layout requires %d", i, o, off)
		}
		length := binary.LittleEndian.Uint64(e[16:])
		if length%8 != 0 || length > uint64(len(data))-off {
			return 0, nil, errV2("section %d length %d overruns or misaligns", i, length)
		}
		secs[i].payload = data[off : off+length]
		wantCRCs[i] = binary.LittleEndian.Uint32(e[24:])
		off += length
	}
	if off != uint64(len(data)) {
		return 0, nil, errV2("%d trailing bytes after the last section", uint64(len(data))-off)
	}
	// Payload checksums run one goroutine per section on large files —
	// open-to-first-query latency is dominated by these linear passes, and
	// the sections are disjoint read-only ranges.
	err = parCheck(int(nsect), len(data), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if got := crc32.Checksum(secs[i].payload, castagnoli); got != wantCRCs[i] {
				return errV2("section %d checksum %08x, want %08x", i, got, wantCRCs[i])
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return kind, secs, nil
}

// v2ParallelCutoff is the input size in bytes below which the linear
// validation passes (section CRCs, inverse-permutation proof, row-layout
// proof) run serially: goroutine fan-out costs microseconds, which only
// pays for itself on multi-megabyte frames. A var so tests can lower it to
// drive the parallel paths on small frames.
var v2ParallelCutoff = 1 << 20

// parCheck splits [0, n) into contiguous chunks across GOMAXPROCS
// goroutines and runs fn on each. The lowest-indexed chunk's error wins,
// so failures are reported deterministically regardless of scheduling.
// Below the size cutoff (bytes of input backing the checks) it runs fn
// serially on the whole range.
func parCheck(n, sizeBytes int, fn func(lo, hi int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || sizeBytes < v2ParallelCutoff {
		if n == 0 {
			return nil
		}
		return fn(0, n)
	}
	errs := make([]error, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		lo := g * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			errs[g] = fn(lo, hi)
		}(g, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// v2cursor reads the META section's variable-width payload with a sticky
// error and bounds every count by the bytes that remain, so a hostile
// count can never drive an allocation past the section it came from.
type v2cursor struct {
	b   []byte
	err error
}

func (c *v2cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = errV2("meta: "+format, args...)
	}
}

func (c *v2cursor) u64(what string) uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.fail("truncated %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// count reads a u64 that announces `unit`-byte elements to follow; it
// must be justified by the remaining section bytes.
func (c *v2cursor) count(what string, unit int) int {
	v := c.u64(what)
	if c.err != nil {
		return 0
	}
	if v > uint64(len(c.b))/uint64(unit) {
		c.fail("%s count %d overruns the section", what, v)
		return 0
	}
	return int(v)
}

// nonNegInt reads a u64 that must fit the host int.
func (c *v2cursor) nonNegInt(what string) int {
	v := c.u64(what)
	if c.err == nil && v > maxIntU64 {
		c.fail("%s %d does not fit int", what, v)
		return 0
	}
	return int(v)
}

func (c *v2cursor) ints(what string, n int) []int {
	if c.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(c.u64(what)))
	}
	return out
}

func (c *v2cursor) str(what string) string {
	n := c.count(what, 1)
	if c.err != nil {
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

// finish accepts only the zero padding pad8 emits.
func (c *v2cursor) finish() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) >= 8 {
		return errV2("meta: %d trailing bytes", len(c.b))
	}
	for _, x := range c.b {
		if x != 0 {
			return errV2("meta: nonzero padding")
		}
	}
	return nil
}

// metaV2 is the decoded META section.
type metaV2 struct {
	d, n, rpp, affinity       int
	dims                      []int
	lambda2                   []float64
	name, conn, weights, solv string
}

func parseMetaV2(payload []byte) (*metaV2, error) {
	c := v2cursor{b: payload}
	m := &metaV2{}
	m.d = c.count("dimension", 8)
	m.n = c.nonNegInt("record count")
	m.rpp = c.nonNegInt("records per page")
	m.affinity = c.nonNegInt("affinity count")
	nl := c.count("lambda2", 8)
	m.dims = c.ints("dims", m.d)
	if c.err == nil {
		m.lambda2 = make([]float64, nl)
		for i := range m.lambda2 {
			m.lambda2[i] = math.Float64frombits(c.u64("lambda2"))
		}
		if nl == 0 {
			m.lambda2 = nil // no λ₂ is nil, as on a built index
		}
	}
	m.name = c.str("name")
	m.conn = c.str("connectivity")
	m.weights = c.str("weights")
	m.solv = c.str("solver")
	if err := c.finish(); err != nil {
		return nil, err
	}
	if m.name == "" {
		return nil, errV2("meta: empty mapping name")
	}
	if m.rpp < 1 {
		return nil, errV2("meta: records per page %d < 1", m.rpp)
	}
	return m, nil
}

// intsFromBytes either borrows the section in place (the mapped path) or
// decodes a heap copy. Values were written as uint64(int64(v)).
func intsFromBytes(b []byte, borrow bool) []int {
	if borrow {
		return viewInts(b)
	}
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[i*8:])))
	}
	return out
}

func u64sFromBytes(b []byte, borrow bool) []uint64 {
	if borrow {
		return viewUint64s(b)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func int64sFromBytes(b []byte, borrow bool) []int64 {
	if borrow {
		return viewInt64s(b)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// checkInverse proves rank and vert (both length n) are inverse
// permutations of [0,n): rank injects into [0,n) because vert pins each
// image back to its unique preimage, and injective on a finite set means
// bijective. This is the entire trust step that lets mapped frames skip
// order.FromRanks' copying validator. Large frames split the id range
// across goroutines — each id's proof reads only rank[id] and vert[r].
func checkInverse(rank, vert []int) error {
	n := len(rank)
	return parCheck(n, 16*n, func(lo, hi int) error {
		for id := lo; id < hi; id++ {
			if r := rank[id]; uint(r) >= uint(n) || vert[r] != id {
				return fmt.Errorf("spectrallpm: v2 index: rank[%d] = %d does not invert: %w", id, r, ErrNotPermutation)
			}
		}
		return nil
	})
}

// wantSections checks the canonical per-kind type sequence.
func wantSections(secs []v2sec, want ...uint32) error {
	if len(secs) != len(want) {
		return errV2("%d sections, want %d", len(secs), len(want))
	}
	for i, s := range secs {
		if s.typ != want[i] {
			return errV2("section %d has type %d, want %d", i, s.typ, want[i])
		}
	}
	return nil
}

// decodeIndexV2 decodes (or, when borrow is true and the host and buffer
// allow it, adopts in place) one single-index v2 frame. Every structural
// and semantic invariant the serving engines rely on is proven here; the
// returned index is indistinguishable from a freshly built one.
func decodeIndexV2(data []byte, borrow bool) (*Index, error) {
	borrow = borrow && hostMappable && aligned8(data)
	kind, secs, err := parseV2Frame(data)
	if err != nil {
		return nil, err
	}
	meta, err := parseMetaV2(secs[0].payload)
	if err != nil {
		return nil, err
	}
	grid, err := graph.NewGrid(meta.dims...)
	if err != nil {
		return nil, fmt.Errorf("spectrallpm: v2 index dims: %w (%w)", err, ErrCorruptIndex)
	}
	maxLambda := 1
	if kind == v2KindPoints {
		maxLambda = meta.n
	}
	if len(meta.lambda2) > maxLambda {
		return nil, errV2("%d lambda2 entries for at most %d components", len(meta.lambda2), maxLambda)
	}
	for _, l := range meta.lambda2 {
		if l < 0 {
			return nil, errV2("negative lambda2 %v", l)
		}
	}
	ix := &Index{
		name:    meta.name,
		grid:    grid,
		lambda2: meta.lambda2,
		meta:    provenance{connectivity: meta.conn, weights: meta.weights, affinity: meta.affinity, solver: meta.solv},
	}
	if kind == v2KindGrid {
		if err := wantSections(secs, secMeta, secRank, secVert, secRows); err != nil {
			return nil, err
		}
		if meta.n != grid.Size() {
			return nil, errV2("%d records on a %d-point grid", meta.n, grid.Size())
		}
		if err := decodeGridV2(ix, meta, secs, borrow); err != nil {
			return nil, err
		}
	} else {
		if err := decodePointsV2(ix, meta, secs, borrow); err != nil {
			return nil, err
		}
	}
	ix.initCore()
	return ix, nil
}

func decodeGridV2(ix *Index, meta *metaV2, secs []v2sec, borrow bool) error {
	n := uint64(meta.n)
	for i := 1; i <= 3; i++ {
		if uint64(len(secs[i].payload)) != 8*n {
			return errV2("section %d holds %d bytes for %d records", i, len(secs[i].payload), meta.n)
		}
	}
	rank := intsFromBytes(secs[1].payload, borrow)
	vert := intsFromBytes(secs[2].payload, borrow)
	if err := checkInverse(rank, vert); err != nil {
		return err
	}
	rows := u64sFromBytes(secs[3].payload, borrow)
	if err := storage.CheckRows(ix.grid, rank, rows); err != nil {
		return fmt.Errorf("spectrallpm: v2 index: %w", err)
	}
	m, err := order.FromValidated(meta.name, ix.grid, rank, vert)
	if err != nil {
		return err
	}
	st, err := storage.NewStoreFromFrame(m, storage.Frame{Rank: rank, Vert: vert, Rows: rows}, meta.rpp)
	if err != nil {
		return err
	}
	ix.mapping = m
	ix.store = st
	ix.pager = st.Pager()
	return nil
}

func decodePointsV2(ix *Index, meta *metaV2, secs []v2sec, borrow bool) error {
	if meta.d < 1 {
		return errV2("point set with dimension %d", meta.d)
	}
	withTree := len(secs) == 5
	if withTree {
		if err := wantSections(secs, secMeta, secRank, secVert, secPoints, secRTree); err != nil {
			return err
		}
	} else if err := wantSections(secs, secMeta, secRank, secVert, secPoints); err != nil {
		return err
	}
	if withTree != (meta.n > 0) {
		return errV2("R-tree section presence disagrees with %d records", meta.n)
	}
	n, d := uint64(meta.n), uint64(meta.d)
	for i := 1; i <= 2; i++ {
		if uint64(len(secs[i].payload)) != 8*n {
			return errV2("section %d holds %d bytes for %d records", i, len(secs[i].payload), meta.n)
		}
	}
	// n ≤ file/8 after the checks above, so n*d*8 is overflow-safe only
	// via division: the flat table must hold exactly n points of d words.
	ptsB := secs[3].payload
	if uint64(len(ptsB))/(8*d) != n || uint64(len(ptsB))%(8*d) != 0 {
		return errV2("%d point bytes for %d records of dimension %d", len(ptsB), meta.n, meta.d)
	}
	flat := intsFromBytes(ptsB, borrow)
	pts := make([][]int, meta.n)
	for i := range pts {
		pts[i] = flat[i*meta.d : (i+1)*meta.d : (i+1)*meta.d]
	}
	idSorted, pidOf, err := indexPoints(ix.grid, pts)
	if err != nil {
		return err
	}
	rank := intsFromBytes(secs[1].payload, borrow)
	vert := intsFromBytes(secs[2].payload, borrow)
	if meta.n == 0 {
		// Keep the empty slices non-nil, exactly as the v1 importer
		// leaves an empty point-set index ("rank":[]), so both load paths
		// yield the same index.
		rank, vert = []int{}, []int{}
	}
	if err := checkInverse(rank, vert); err != nil {
		return err
	}
	if withTree {
		rt := secs[4].payload
		if len(rt) < 16 {
			return errV2("truncated R-tree section")
		}
		fanout := binary.LittleEndian.Uint64(rt)
		nodes := binary.LittleEndian.Uint64(rt[8:])
		if fanout < 2 || fanout > maxIntU64 {
			return errV2("R-tree fanout %d", fanout)
		}
		rectsB := rt[16:]
		if uint64(len(rectsB))/(16*d) != nodes || uint64(len(rectsB))%(16*d) != 0 {
			return errV2("%d R-tree rect bytes for %d declared nodes", len(rectsB), nodes)
		}
		rects := int64sFromBytes(rectsB, borrow)
		ix.rt, err = rtree.FromParts(flat, meta.d, vert, int(fanout), rects)
		if err != nil {
			return fmt.Errorf("spectrallpm: v2 index: %w (%w)", err, ErrCorruptIndex)
		}
	}
	pager, err := storage.NewPager(meta.n, meta.rpp)
	if err != nil {
		return err
	}
	ix.pts = pts
	ix.idSorted = idSorted
	ix.pidOf = pidOf
	ix.rank = rank
	ix.vert = vert
	ix.pager = pager
	return nil
}

// ReadIndexV2 loads a v2 index from a stream, materializing every section
// into owned memory — the portable fallback for hosts or buffers the
// zero-copy path cannot serve. The loaded index is rank-for-rank
// identical to what OpenMapped serves from the same bytes.
func ReadIndexV2(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spectrallpm: read v2 index: %w", err)
	}
	return decodeIndexV2(data, false)
}

// OpenMapped opens a v2 index file for serving by mapping it read-only
// into memory: the engines operate directly on the mapped bytes, so open
// cost is dominated by validation (CRCs plus the linear frame proofs)
// rather than by decoding, and resident memory is shared page cache.
// Close the returned index to release the mapping. On hosts that cannot
// serve the bytes in place (no mmap, big-endian, 32-bit int) OpenMapped
// transparently materializes instead and Close is a no-op.
func OpenMapped(path string) (*Index, error) {
	data, unmap, err := mapWhole(path)
	if err != nil {
		return nil, err
	}
	ix, err := decodeIndexV2(data, unmap != nil)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	if unmap != nil {
		// Only a real mapping needs the borrow-counted lifetime; the
		// materialized fallback's frame is ordinary GC-owned memory and
		// keeps the zero-overhead nil lifecycle. Re-arm the core so its
		// borrow brackets see the lifecycle.
		ix.lc = serve.NewLifecycle()
		ix.initCore()
		ix.closeFn = unmap
	}
	return ix, nil
}

// mapWhole maps path read-only when the platform and host allow serving
// in place, or reads it into memory otherwise (nil unmap).
func mapWhole(path string) (data []byte, unmap func() error, err error) {
	if !mmapSupported || !hostMappable {
		data, err := os.ReadFile(path)
		return data, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < v2HeaderSize {
		return nil, nil, errV2("%d-byte file is shorter than the header", size)
	}
	if uint64(size) > maxIntU64 {
		return nil, nil, errV2("%d-byte file does not fit in memory", size)
	}
	return mapFile(f, int(size))
}

// OpenIndex opens an index file in whichever single-index format it
// carries, sniffing the magic bytes: v2 binary files open via OpenMapped
// (zero-copy where the host allows), anything else falls back to the v1
// JSON reader. Close the returned index when done serving; Close is a
// no-op for v1 and materialized indexes.
func OpenIndex(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	n, _ := io.ReadFull(f, magic[:])
	switch string(magic[:n]) {
	case magicIndexV2:
		return OpenMapped(path)
	case magicShardedV2:
		return nil, fmt.Errorf("spectrallpm: %s is a sharded v2 index; open it with OpenMappedSharded", path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadIndex(f)
}
