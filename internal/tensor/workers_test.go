package tensor

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func randFactor(rng *rand.Rand, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range rows {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return m
}

// TestProjectedUnfoldWorkersBitIdentical pins the worker-pool unfolding
// product to the serial one at every mode: workers own disjoint output
// rows and accumulate entries in the same serial order, so no worker
// count may move a bit.
func TestProjectedUnfoldWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := randSparse(rng, 9, 14, 11, 160)
	factors := [4]*mat.Matrix{
		nil,
		randFactor(rng, 9, 3),
		randFactor(rng, 14, 4),
		randFactor(rng, 11, 2),
	}
	for mode := 1; mode <= 3; mode++ {
		var ya, yb *mat.Matrix
		switch mode {
		case 1:
			ya, yb = factors[2], factors[3]
		case 2:
			ya, yb = factors[1], factors[3]
		case 3:
			ya, yb = factors[1], factors[2]
		}
		want := ProjectedUnfoldWorkers(f, mode, ya, yb, 1)
		for _, workers := range []int{0, 2, 4, 50} {
			got := ProjectedUnfoldWorkers(f, mode, ya, yb, workers)
			for i, v := range want.Data() {
				if got.Data()[i] != v {
					t.Fatalf("mode %d workers=%d: element %d diverges", mode, workers, i)
				}
			}
		}
	}
}
