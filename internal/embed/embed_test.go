package embed

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/distance"
	"repro/internal/mat"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

func paperDecomposition(t testing.TB) *tucker.Decomposition {
	t.Helper()
	d := tagging.NewDataset()
	d.Add("u1", "folk", "r1")
	d.Add("u1", "folk", "r2")
	d.Add("u2", "folk", "r2")
	d.Add("u3", "folk", "r2")
	d.Add("u1", "people", "r1")
	d.Add("u2", "laptop", "r3")
	d.Add("u3", "laptop", "r3")
	return tucker.Decompose(d.Tensor(), tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1})
}

// syntheticEmbedding builds a deterministic n×dim embedding directly.
func syntheticEmbedding(n, dim int) *TagEmbedding {
	m := mat.New(n, dim)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range n {
		for j := range dim {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			m.Set(i, j, float64(state>>11)/(1<<53)-0.5)
		}
	}
	return FromMatrix(m)
}

func TestDistMatchesTheorem2(t *testing.T) {
	dec := paperDecomposition(t)
	cube := distance.NewCubeLSI(dec)
	e := FromDecomposition(dec)
	if e.NumTags() != cube.NumTags() {
		t.Fatalf("NumTags = %d, want %d", e.NumTags(), cube.NumTags())
	}
	if e.Dim() != dec.Y2.Cols() {
		t.Fatalf("Dim = %d, want %d", e.Dim(), dec.Y2.Cols())
	}
	for i := range e.NumTags() {
		for j := range e.NumTags() {
			got := e.Dist(i, j)
			want := cube.DistanceDiag(i, j)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("Dist(%d,%d) = %v, Theorem 2 says %v", i, j, got, want)
			}
		}
	}
}

func TestPairwiseMatchesDistanceMatrix(t *testing.T) {
	dec := paperDecomposition(t)
	want := distance.NewCubeLSI(dec).Pairwise()
	got := FromDecomposition(dec).Pairwise()
	n := want.Rows()
	for i := range n {
		for j := range n {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("Pairwise[%d,%d] = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	for _, n := range []int{137, 37} {
		nearestKMatchesBruteForce(t, syntheticEmbedding(n, 5))
	}
}

func nearestKMatchesBruteForce(t *testing.T, e *TagEmbedding) {
	t.Helper()
	n := e.NumTags()
	for _, probe := range []int{0, 1, n / 2, n - 1} {
		brute := make([]Neighbor, 0, n-1)
		for j := range n {
			if j != probe {
				brute = append(brute, Neighbor{Tag: j, Dist: e.Dist(probe, j)})
			}
		}
		sort.Slice(brute, func(a, b int) bool {
			if brute[a].Dist != brute[b].Dist {
				return brute[a].Dist < brute[b].Dist
			}
			return brute[a].Tag < brute[b].Tag
		})
		for _, k := range []int{1, 3, 10, n - 1} {
			got := e.NearestK(probe, k)
			if len(got) != k {
				t.Fatalf("NearestK(%d, %d) returned %d neighbors", probe, k, len(got))
			}
			for idx, nb := range got {
				if nb.Tag != brute[idx].Tag || math.Abs(nb.Dist-brute[idx].Dist) > 1e-12 {
					t.Fatalf("NearestK(%d, %d)[%d] = %+v, want %+v", probe, k, idx, nb, brute[idx])
				}
			}
		}
		// k ≤ 0 and oversized k return everything.
		if got := e.NearestK(probe, 0); len(got) != n-1 {
			t.Fatalf("NearestK(%d, 0) returned %d, want %d", probe, len(got), n-1)
		}
		if got := e.NearestK(probe, 10*n); len(got) != n-1 {
			t.Fatalf("NearestK oversized k returned %d, want %d", len(got), n-1)
		}
	}
}

func TestNearestKDeterministicTies(t *testing.T) {
	// Four identical points: all cross distances are 0, so ordering must
	// fall back to ascending tag id.
	m := mat.New(4, 3)
	for i := range 4 {
		copy(m.Row(i), []float64{1, 2, 3})
	}
	e := FromMatrix(m)
	got := e.NearestK(2, 2)
	if len(got) != 2 || got[0].Tag != 0 || got[1].Tag != 1 {
		t.Fatalf("tie-break by id broken: %+v", got)
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatalf("identical points must be at distance 0: %+v", got)
		}
	}

	// Two tied distances: tags 2 and 4 tie at 2, tags 0 and 1 at 3 with
	// one slot left, so the tie at the k-th slot keeps the lower id.
	line := mat.New(5, 1)
	for i, x := range []float64{3, -3, 2, 0, -2} {
		line.Set(i, 0, x)
	}
	got = FromMatrix(line).NearestK(3, 3)
	want := []Neighbor{{Tag: 2, Dist: 2}, {Tag: 4, Dist: 2}, {Tag: 0, Dist: 3}}
	if len(got) != len(want) {
		t.Fatalf("NearestK returned %d neighbors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestNearestKSingleton(t *testing.T) {
	if got := syntheticEmbedding(1, 4).NearestK(0, 5); got != nil {
		t.Fatalf("singleton vocabulary has no neighbors: %v", got)
	}
}

func TestPairwiseSymmetricZeroDiagonal(t *testing.T) {
	for _, shape := range [][2]int{{31, 6}, {23, 4}} {
		n := shape[0]
		e := syntheticEmbedding(n, shape[1])
		p := e.Pairwise()
		for i := range n {
			if p.At(i, i) != 0 {
				t.Fatalf("diagonal [%d] = %v", i, p.At(i, i))
			}
			for j := range n {
				if p.At(i, j) != p.At(j, i) {
					t.Fatalf("asymmetric at (%d,%d)", i, j)
				}
				if p.At(i, j) < 0 {
					t.Fatal("negative distance")
				}
				if i != j && p.At(i, j) != e.Dist(i, j) {
					t.Fatalf("Pairwise[%d,%d] = %v, Dist = %v", i, j, p.At(i, j), e.Dist(i, j))
				}
			}
		}
	}
}

func TestPairwiseContextCancelled(t *testing.T) {
	e := syntheticEmbedding(64, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.PairwiseContext(ctx); err == nil {
		t.Fatal("cancelled context must surface an error")
	}
}

func TestMemoryBytes(t *testing.T) {
	e := syntheticEmbedding(10, 3)
	if got := e.MemoryBytes(); got != 8*10*3 {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

// BenchmarkNearestK pins the hot exact-scan loop (sqDistRows over the
// flat backing array) at serving scale, k=10.
func BenchmarkNearestK(b *testing.B) {
	e := syntheticEmbedding(20000, 64)
	b.ResetTimer()
	for i := range b.N {
		e.NearestK(i%20000, 10)
	}
}

func BenchmarkSqDistRows(b *testing.B) {
	e := syntheticEmbedding(2, 64)
	ri, rj := e.Row(0), e.Row(1)
	b.ResetTimer()
	for range b.N {
		sink += sqDistRows(ri, rj)
	}
}

var sink float64

func BenchmarkNearestK10(b *testing.B) {
	e := syntheticEmbedding(5000, 64)
	b.ResetTimer()
	for i := range b.N {
		e.NearestK(i%5000, 10)
	}
}

func BenchmarkPairwise1k(b *testing.B) {
	e := syntheticEmbedding(1000, 64)
	b.ResetTimer()
	for range b.N {
		e.Pairwise()
	}
}
