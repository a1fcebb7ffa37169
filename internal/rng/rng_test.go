package rng

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := trials / n
	for v, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("value %d drawn %d times, want about %d", v, c, want)
		}
	}
}

func TestBitBalance(t *testing.T) {
	s := New(5)
	const trials = 100000
	ones := 0
	for i := 0; i < trials; i++ {
		b := s.Bit()
		if b > 1 {
			t.Fatalf("Bit returned %d", b)
		}
		ones += int(b)
	}
	if ones < trials*45/100 || ones > trials*55/100 {
		t.Fatalf("bit balance off: %d ones of %d", ones, trials)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(42)
	a := parent.Fork(1)
	b := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams overlap: %d of 100 outputs equal", same)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(42).Fork(7)
	b := New(42).Fork(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("fork with same parent seed and label not deterministic")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(11)
	for _, n := range []int{0, 1, 2, 5, 32} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestSubsetIntoMatchesSubset pins the stream-identity contract: the
// allocation-free scratch variants draw exactly the same values as their
// allocating counterparts, so swapping one for the other never changes an
// execution.
func TestSubsetIntoMatchesSubset(t *testing.T) {
	a, b := New(99), New(99)
	scratch := make([]int, 32)
	for _, nk := range [][2]int{{10, 3}, {10, 10}, {1, 0}, {32, 30}, {7, 1}} {
		n, k := nk[0], nk[1]
		want := a.Subset(n, k)
		got := b.SubsetInto(scratch[:n], k)
		if len(got) != len(want) {
			t.Fatalf("SubsetInto(%d, %d) length %d, want %d", n, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SubsetInto(%d, %d) = %v, want %v", n, k, got, want)
			}
		}
	}
	src := New(5)
	if allocs := testing.AllocsPerRun(100, func() { src.SubsetInto(scratch[:32], 30) }); allocs != 0 {
		t.Fatalf("SubsetInto on a pre-built Source allocates %v times per call", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SubsetInto with k > len(dst) did not panic")
		}
	}()
	New(1).SubsetInto(scratch[:4], 5)
}

// subsetOracle is the reference sampler SubsetInto must reproduce: a full
// Fisher-Yates over dst followed by an insertion sort of the first k
// entries. It is deliberately the naive algorithm, kept here only to check
// the fast one against.
func subsetOracle(s *Source, dst []int, k int) []int {
	s.PermInto(dst)
	out := dst[:k]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// TestSubsetIntoMatchesOracle pins SubsetInto to the reference sampler for
// every k at every n up to 130 (crossing the 63/64/65 and 127/128 word
// boundaries the delivery bitsets use), over several seeds: the same sorted
// subset, and the same stream position afterwards.
func TestSubsetIntoMatchesOracle(t *testing.T) {
	const maxN = 130
	want, got := make([]int, maxN), make([]int, maxN)
	for _, seed := range []uint64{0, 1, 42, 1<<63 + 5} {
		a, b := New(seed), New(seed)
		for n := 0; n <= maxN; n++ {
			for k := 0; k <= n; k++ {
				w := subsetOracle(a, want[:n], k)
				g := b.SubsetInto(got[:n], k)
				if !slices.Equal(g, w) {
					t.Fatalf("seed %d: SubsetInto(n=%d, k=%d) = %v, want %v", seed, n, k, g, w)
				}
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d: stream diverged after SubsetInto(n=%d, k=%d)", seed, n, k)
				}
			}
		}
	}
}

// TestSubsetIntoGoldenDigest fixes the sampler's output at the stall sweep's
// random-cell shape (n=48: k = n-t, a full k = n, a reset-sized k = t), at
// n=60 and at n=1024, so any change to the stream or to the subset order
// fails here by name.
func TestSubsetIntoGoldenDigest(t *testing.T) {
	const golden = 0xad820ed5168ae31d
	s := New(2013)
	scratch := make([]int, 1024)
	h := fnv.New64a()
	var buf []byte
	for _, nk := range [][2]int{{48, 41}, {48, 48}, {48, 7}, {60, 51}, {1024, 897}} {
		n, k := nk[0], nk[1]
		for r := 0; r < 16; r++ {
			buf = buf[:0]
			for _, v := range s.SubsetInto(scratch[:n], k) {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			h.Write(buf)
		}
	}
	if got := h.Sum64(); got != golden {
		t.Fatalf("SubsetInto stream digest %#x, want %#x", got, uint64(golden))
	}
}

func TestSubsetProperties(t *testing.T) {
	s := New(13)
	check := func(n, k uint8) bool {
		nn := int(n%20) + 1
		kk := int(k) % (nn + 1)
		sub := s.Subset(nn, kk)
		if len(sub) != kk {
			return false
		}
		for i, v := range sub {
			if v < 0 || v >= nn {
				return false
			}
			if i > 0 && sub[i-1] >= v {
				return false // must be sorted strictly ascending
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetCoverage(t *testing.T) {
	// Every element should appear in some subset over many draws.
	s := New(17)
	const n, k = 10, 3
	seen := make([]bool, n)
	for i := 0; i < 1000; i++ {
		for _, v := range s.Subset(n, k) {
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("element %d never selected by Subset", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(100)
	}
}

// BenchmarkSubsetInto measures one receiver's draw at the stall sweep's
// random-cell shapes, n=48 with k = n-t = 41 and a full k = n, and at
// n=1024 with k = n-t = 897, where any sort of the subset would dominate.
func BenchmarkSubsetInto(b *testing.B) {
	for _, nk := range [][2]int{{48, 41}, {48, 48}, {1024, 897}} {
		n, k := nk[0], nk[1]
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			s := New(1)
			scratch := make([]int, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.SubsetInto(scratch, k)
			}
		})
	}
}
