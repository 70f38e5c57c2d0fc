package spectrallpm

import "encoding/json"

// Test-only bridges into the v2 decoders so the external test package can
// drive the zero-copy (borrow=true) validation path on in-memory buffers
// — the over-read and alignment hazards the fuzzer targets — without
// round-tripping every input through a mapped file.

func DecodeIndexV2ForTest(data []byte, borrow bool) (*Index, error) {
	return decodeIndexV2(data, borrow)
}

func DecodeShardedV2ForTest(data []byte, borrow bool) (*ShardedIndex, error) {
	return decodeShardedV2(data, borrow)
}

// SetV2ParallelCutoffForTest lowers the size threshold of the parallel
// validation passes so small test frames exercise the goroutine-chunked
// proofs; the returned func restores the default.
func SetV2ParallelCutoffForTest(n int) (restore func()) {
	old := v2ParallelCutoff
	v2ParallelCutoff = n
	return func() { v2ParallelCutoff = old }
}

// EncodeIndexV1ForTest writes ix in the version-1 JSON format that
// ReadIndex imports. The package itself no longer writes v1; tests use
// this encoder to produce v1 inputs and to compare imported indexes field
// for field, and the v1-read benchmark row uses it for its bytes.
func EncodeIndexV1ForTest(ix *Index) ([]byte, error) {
	f := indexFileV1{
		Format:         indexFormat,
		Version:        indexVersion,
		Name:           ix.name,
		Dims:           ix.grid.Dims(),
		Connectivity:   ix.meta.connectivity,
		Weights:        ix.meta.weights,
		Affinity:       ix.meta.affinity,
		Solver:         ix.meta.solver,
		Lambda2:        ix.lambda2,
		RecordsPerPage: ix.pager.RecordsPerPage(),
	}
	if ix.mapping != nil {
		f.Rank = ix.mapping.Ranks()
	} else {
		f.Points = &ix.pts
		f.Rank = ix.rank
	}
	data, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
