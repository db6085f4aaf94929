package workload

import (
	"testing"

	"eunomia/internal/vclock"
)

func TestScrambledPreservesSkewDestroysAdjacency(t *testing.T) {
	const n = 10000
	plain := Spec{Kind: Zipfian, N: n, Theta: 0.99}.New()
	scr := NewScrambled(Spec{Kind: Zipfian, N: n, Theta: 0.99}.New())

	// Same top-10% mass (popularity histogram preserved under a bijection
	// approximation; the modulo can collide, so allow slack).
	mp := topFracMass(t, plain, 0.10, 100000)
	ms := topFracMass(t, scr, 0.10, 100000)
	if ms < mp-0.08 || ms > mp+0.08 {
		t.Fatalf("scrambling changed skew: plain %.3f vs scrambled %.3f", mp, ms)
	}

	// Adjacency destroyed: the hottest two scrambled keys are far apart.
	r := vclock.NewRand(3)
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		counts[scr.Next(r)]++
	}
	var k1, k2 uint64
	c1, c2 := -1, -1
	for k, c := range counts {
		if c > c1 {
			k2, c2 = k1, c1
			k1, c1 = k, c
		} else if c > c2 {
			k2, c2 = k, c
		}
	}
	diff := int64(k1) - int64(k2)
	if diff < 0 {
		diff = -diff
	}
	if diff <= 8 {
		t.Fatalf("hottest scrambled keys adjacent: %d and %d", k1, k2)
	}
}

func TestScrambledInRange(t *testing.T) {
	g := NewScrambled(Spec{Kind: Zipfian, N: 997, Theta: 0.9}.New())
	r := vclock.NewRand(5)
	for i := 0; i < 10000; i++ {
		if k := g.Next(r); k >= 997 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestScrambledSpecKind(t *testing.T) {
	g := Spec{Kind: ScrambledZipfian, N: 1000, Theta: 0.9}.New()
	r := vclock.NewRand(2)
	for i := 0; i < 1000; i++ {
		if k := g.Next(r); k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
	}
	if ScrambledZipfian.String() != "scrambled-zipfian" {
		t.Fatal("bad kind name")
	}
}
