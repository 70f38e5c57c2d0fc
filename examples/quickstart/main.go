// Quickstart: build a Spectral LPM index for a 2-D grid, look points up in
// the linear order, persist the solved index and load it back — the
// library's 60-second tour of the build-once/serve-many workflow.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

func main() {
	ctx := context.Background()

	// 1. Index an 8x8 grid of points (e.g. tiles of a map, cells of a
	// raster). Build runs the eigensolve once; the returned Index is
	// immutable and safe to query from any number of goroutines.
	spectral, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(8, 8))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Where did point (3, 5) land in the 1-D order?
	rank, err := spectral.Rank(3, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point (3,5) -> rank %d of %d (lambda2 = %.4f)\n\n", rank, spectral.N(), spectral.Lambda2()[0])

	// 3. The whole order, as a rank matrix.
	fmt.Println("spectral rank matrix:")
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			rank, err := spectral.Rank(r, c)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%4d", rank)
		}
		fmt.Println()
	}

	// 4. Persist the solved order and load it back — a server does this at
	// startup instead of re-running the eigensolve.
	var file bytes.Buffer
	n, err := spectral.WriteToV2(&file)
	if err != nil {
		log.Fatal(err)
	}
	served, err := spectrallpm.ReadIndexV2(&file)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := served.Rank(3, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreloaded index (%d bytes on disk) agrees: rank %d\n", n, r2)

	// 5. Compare against the Hilbert curve on the paper's headline metric:
	// the worst 1-D distance between points that are adjacent in 2-D.
	hilbert, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(8, 8), spectrallpm.WithMapping("hilbert"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nworst 1-D gap between 2-D neighbors (lower preserves locality better):")
	for _, ix := range []*spectrallpm.Index{spectral, hilbert} {
		stats := spectrallpm.PairwiseByManhattan(ix.Mapping())
		fmt.Printf("  %-9s %d\n", ix.Name(), stats.MaxGapAt(1))
	}
}
