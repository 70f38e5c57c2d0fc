package spectrallpm_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// TestOpenMappedConcurrentServing hammers one mapped index from
// GOMAXPROCS-or-more goroutines mixing every serving surface — Scan,
// ScanInto, QueryIO, Rank, Pages — against answers precomputed serially
// from the in-memory index the file was written from. Every query path
// checks rank scratch in and out of the shared pools, so this is the test
// the race detector needs to prove the borrowed mmap frame and the pooled
// serving core are safe under concurrent load; it also pins the drain →
// Close → second-Close shutdown sequence the package documents.
func TestOpenMappedConcurrentServing(t *testing.T) {
	built := buildTestIndex(t,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(8))
	mapped, err := spectrallpm.OpenMapped(writeV2File(t, built))
	if err != nil {
		t.Fatal(err)
	}

	// One box per prospective worker, clipped inside the grid, answered
	// serially up front by the owned index.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	type expected struct {
		box   spectrallpm.Box
		ranks []int
		pages []spectrallpm.PageRun
		io    spectrallpm.IOStats
	}
	exps := make([]expected, workers)
	for w := range exps {
		e := &exps[w]
		e.box = spectrallpm.Box{
			Start: []int{w % 8, (w * 3) % 8},
			Dims:  []int{1 + w%5, 1 + (w/2)%5},
		}
		if err := built.ScanInto(e.box, func(rank int, _ []int) bool {
			e.ranks = append(e.ranks, rank)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if e.pages, err = built.Pages(e.box); err != nil {
			t.Fatal(err)
		}
		if e.io, err = built.QueryIO(e.box); err != nil {
			t.Fatal(err)
		}
	}
	points := make([][]int, built.N())
	for r := range points {
		if points[r], err = built.Point(r); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := &exps[w]
			other := &exps[(w+1)%workers]
			got := make([]int, 0, len(mine.ranks))
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0: // Scan, consuming the single-use sequence
					seq, err := mapped.Scan(mine.box)
					if err != nil {
						t.Error(err)
						return
					}
					got = got[:0]
					for rank := range seq {
						got = append(got, rank)
					}
					if !slices.Equal(got, mine.ranks) {
						t.Errorf("worker %d round %d: Scan ranks %v, want %v", w, i, got, mine.ranks)
						return
					}
				case 1: // ScanInto over a box shared with another worker
					got = got[:0]
					if err := mapped.ScanInto(other.box, func(rank int, _ []int) bool {
						got = append(got, rank)
						return true
					}); err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(got, other.ranks) {
						t.Errorf("worker %d round %d: ScanInto ranks %v, want %v", w, i, got, other.ranks)
						return
					}
				case 2: // QueryIO
					io, err := mapped.QueryIO(mine.box)
					if err != nil {
						t.Error(err)
						return
					}
					if io != mine.io {
						t.Errorf("worker %d round %d: QueryIO %+v, want %+v", w, i, io, mine.io)
						return
					}
				case 3: // Rank over the whole point table
					for r := (w + i) % 16; r < len(points); r += 16 {
						rr, err := mapped.Rank(points[r]...)
						if err != nil {
							t.Error(err)
							return
						}
						if rr != r {
							t.Errorf("worker %d round %d: Rank(%v) = %d, want %d", w, i, points[r], rr, r)
							return
						}
					}
				case 4: // Pages
					runs, err := mapped.Pages(mine.box)
					if err != nil {
						t.Error(err)
						return
					}
					if len(runs) != len(mine.pages) {
						t.Errorf("worker %d round %d: %d page runs, want %d", w, i, len(runs), len(mine.pages))
						return
					}
					for j := range runs {
						if runs[j] != mine.pages[j] {
							t.Errorf("worker %d round %d: page run %d = %+v, want %+v", w, i, j, runs[j], mine.pages[j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain complete: the mapped region must unmap cleanly, and a second
	// Close must stay a no-op.
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}
}

// TestOpenMappedCloseUnderLoad closes a mapped index while queries are in
// full flight. The borrow count must hold the unmap back until the last
// in-flight query releases, and every query must either answer correctly
// or fail with ErrIndexClosed — never a torn read of unmapped bytes.
func TestOpenMappedCloseUnderLoad(t *testing.T) {
	built := buildTestIndex(t,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(8))
	path := writeV2File(t, built)

	box := spectrallpm.Box{Start: []int{2, 3}, Dims: []int{5, 4}}
	var want []int
	if err := built.ScanInto(box, func(rank int, _ []int) bool {
		want = append(want, rank)
		return true
	}); err != nil {
		t.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const cycles = 20
	for c := 0; c < cycles; c++ {
		mapped, err := spectrallpm.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		var started sync.WaitGroup // every worker lands one good query pre-Close
		var wg sync.WaitGroup
		started.Add(workers)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				got := make([]int, 0, len(want))
				first := true
				landed := func() {
					if first {
						first = false
						started.Done()
					}
				}
				defer landed() // never strand started.Wait on an early error
				for {
					got = got[:0]
					err := mapped.ScanInto(box, func(rank int, _ []int) bool {
						got = append(got, rank)
						return true
					})
					if errors.Is(err, spectrallpm.ErrIndexClosed) {
						return // closed under us — the only acceptable failure
					}
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if !slices.Equal(got, want) {
						t.Errorf("worker %d: ranks %v, want %v", w, got, want)
						return
					}
					landed()
				}
			}(w)
		}
		started.Wait() // close only once load is provably in flight
		if err := mapped.Close(); err != nil {
			t.Fatalf("cycle %d: Close under load: %v", c, err)
		}
		wg.Wait()
		if _, err := mapped.Rank(0, 0); !errors.Is(err, spectrallpm.ErrIndexClosed) {
			t.Fatalf("cycle %d: Rank after Close = %v, want ErrIndexClosed", c, err)
		}
	}
}

// TestScopeCloseUnderLoad closes a Scope view while goroutines scan both
// the view and its parent. The two share one Lifecycle, so the view's
// Close must wait for every in-flight borrower of either — checked by
// parking one scan inside its yield, on the view in even cycles and on
// the parent in odd ones — and afterwards both answer ErrIndexClosed.
// Every scan that does run must answer exactly, never from unmapped
// bytes.
func TestScopeCloseUnderLoad(t *testing.T) {
	built, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	path := writeShardedV2File(t, built)
	box := spectrallpm.Box{Start: []int{2, 3}, Dims: []int{9, 8}} // straddles shards
	ranks := func(sx *spectrallpm.ShardedIndex, rows []int, yield func()) ([]int, error) {
		err := sx.ScanInto(box, func(rank int, _ []int) bool {
			rows = append(rows, rank)
			yield()
			return true
		})
		return rows, err
	}
	builtView, err := built.Scope(1)
	if err != nil {
		t.Fatal(err)
	}
	wantParent, err := ranks(built, nil, func() {})
	if err != nil {
		t.Fatal(err)
	}
	wantView, err := ranks(builtView, nil, func() {})
	if err != nil || len(wantView) == 0 {
		t.Fatalf("view scan: %v rows, %v", len(wantView), err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const cycles = 10
	for c := 0; c < cycles; c++ {
		parent, err := spectrallpm.OpenMappedSharded(path)
		if err != nil {
			t.Fatal(err)
		}
		view, err := parent.Scope(1)
		if err != nil {
			t.Fatal(err)
		}
		targets := []*spectrallpm.ShardedIndex{view, parent}
		wants := [][]int{wantView, wantParent}

		// The parked borrower: it enters a scan, signals, and stays inside
		// its first yield until released.
		inside, release := make(chan struct{}), make(chan struct{})
		parked := make(chan error, 1)
		go func() {
			first := true
			got, err := ranks(targets[c%2], nil, func() {
				if first {
					first = false
					close(inside)
					<-release
				}
			})
			if err == nil && !slices.Equal(got, wants[c%2]) {
				err = fmt.Errorf("parked scan ranks %v, want %v", got, wants[c%2])
			}
			parked <- err
		}()
		<-inside

		var started, wg sync.WaitGroup // every worker lands one good query pre-Close
		started.Add(workers)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				sx, want := targets[w%2], wants[w%2]
				got := make([]int, 0, len(want))
				first := true
				landed := func() {
					if first {
						first = false
						started.Done()
					}
				}
				defer landed() // never strand started.Wait on an early error
				for {
					var err error
					got, err = ranks(sx, got[:0], func() {})
					if errors.Is(err, spectrallpm.ErrIndexClosed) {
						return // closed under us — the only acceptable failure
					}
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if !slices.Equal(got, want) {
						t.Errorf("worker %d: ranks %v, want %v", w, got, want)
						return
					}
					landed()
				}
			}(w)
		}
		started.Wait() // close only once load is provably in flight
		closed := make(chan error, 1)
		go func() { closed <- view.Close() }()
		// Once Close has latched (new queries refuse), it must still be
		// waiting for the parked scan.
		for _, err := parent.Rank(5, 5); !errors.Is(err, spectrallpm.ErrIndexClosed); _, err = parent.Rank(5, 5) {
			runtime.Gosched()
		}
		select {
		case err := <-closed:
			t.Fatalf("cycle %d: Close returned (%v) while a scan was still inside the mapping", c, err)
		default:
		}
		close(release)
		if err := <-parked; err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if err := <-closed; err != nil {
			t.Fatalf("cycle %d: Close under load: %v", c, err)
		}
		wg.Wait()
		for _, sx := range targets {
			if _, err := sx.Rank(5, 5); !errors.Is(err, spectrallpm.ErrIndexClosed) {
				t.Fatalf("cycle %d: Rank after Close = %v, want ErrIndexClosed", c, err)
			}
			if _, err := ranks(sx, nil, func() {}); !errors.Is(err, spectrallpm.ErrIndexClosed) {
				t.Fatalf("cycle %d: ScanInto after Close = %v, want ErrIndexClosed", c, err)
			}
		}
		if err := parent.Close(); err != nil {
			t.Fatalf("cycle %d: parent Close after view Close: %v", c, err)
		}
	}
}
