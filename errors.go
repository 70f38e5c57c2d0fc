package spectrallpm

import (
	"errors"

	"github.com/spectral-lpm/spectrallpm/internal/errs"
)

// Sentinel errors. Errors returned by this package (and by the deprecated
// free functions it wraps) can be classified with errors.Is against these
// values, so a server can turn a malformed request into a 4xx instead of a
// retry or a crash.
var (
	// ErrUnknownMapping reports a mapping name outside the supported
	// families (see StandardMappings and the Build documentation).
	ErrUnknownMapping = errs.ErrUnknownMapping
	// ErrNotPermutation reports a rank slice that is not a permutation of
	// 0..N-1 — a duplicate, a hole, or an out-of-range value — passed to
	// WithRanks or found in a serialized index.
	ErrNotPermutation = errs.ErrNotPermutation
	// ErrDimensionMismatch reports coordinates, boxes, or slices whose
	// arity or extent does not fit the index's grid.
	ErrDimensionMismatch = errs.ErrDimensionMismatch
	// ErrRankOutOfRange reports a 1-D rank outside [0, N).
	ErrRankOutOfRange = errs.ErrRankOutOfRange
	// ErrCorruptIndex reports a serialized index (single or sharded) whose
	// framing decodes but whose contents are inconsistent or hostile: a
	// non-positive page size, impossible λ₂ entries, a dims product that
	// would wrap the vertex count, shard frames that do not tile the
	// declared grid, or mismatched shard metadata. A server loading
	// untrusted files should treat it as a permanent (non-retryable) load
	// failure.
	ErrCorruptIndex = errs.ErrCorruptIndex
	// ErrIndexClosed reports a query against a mapped index whose Close has
	// begun: the backing byte region is being (or has been) unmapped, so no
	// new borrow of its bytes may start. In-flight queries are unaffected —
	// Close blocks until the last borrower releases. A server that swapped
	// in a replacement index treats it as "retry against the current
	// index", never as a request error.
	ErrIndexClosed = errs.ErrIndexClosed
	// ErrPointNotIndexed reports a lookup of coordinates that are not
	// among a point-set index's indexed points — whether inside its
	// bounding box or beyond it (the bounding box is an implementation
	// detail, so absent is absent either way).
	ErrPointNotIndexed = errors.New("point not in index")
)
