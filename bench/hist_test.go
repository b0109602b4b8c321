package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// bucketWidth is the width of the bucket holding v: the most a quantile
// read back from the histogram may be off by.
func bucketWidth(v float64) float64 {
	lo, hi := bucketBounds(bucketOf(int64(v)))
	return hi - lo
}

func TestHistQuantilesWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 200000)
	for i := range xs {
		// Log-uniform from 1 µs to 2 s: every octave the benchmark sees.
		ns := math.Exp(rng.Float64()*math.Log(2e9/1e3)) * 1e3
		xs[i] = math.Floor(ns)
		h.record(int64(xs[i]))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := xs[min(int(q*float64(len(xs))), len(xs)-1)]
		got := h.quantile(q)
		if d := math.Abs(got - exact); d > bucketWidth(exact) {
			t.Errorf("q%.3f = %.0f ns, exact %.0f ns: off by %.0f, more than the bucket width %.0f",
				q, got, exact, d, bucketWidth(exact))
		}
	}
	if h.max != int64(xs[len(xs)-1]) || h.min != int64(xs[0]) {
		t.Errorf("extremes %d..%d, want %.0f..%.0f", h.min, h.max, xs[0], xs[len(xs)-1])
	}
}

func TestHistResolvesTenMinutes(t *testing.T) {
	var h hist
	long := []time.Duration{time.Second, time.Minute, 10 * time.Minute}
	for _, d := range long {
		if lo, hi := bucketBounds(bucketOf(int64(d))); float64(d) < lo || float64(d) >= hi {
			t.Errorf("%v lands in bucket [%.0f, %.0f)", d, lo, hi)
		}
		if w := bucketWidth(float64(d)); w > float64(d)/histSub {
			t.Errorf("bucket of %v is %.0f ns wide, more than 1/%d of it", d, w, histSub)
		}
		for i := 0; i < 100; i++ {
			h.record(int64(d))
		}
	}
	// Tails past 134 ms, where a power-of-two recorder with 2^27 ns as
	// its last bucket clamps, must come back as themselves.
	for i, q := range []float64{0.2, 0.5, 0.9} {
		want := float64(long[i])
		if got := h.quantile(q); math.Abs(got-want) > bucketWidth(want) {
			t.Errorf("q%v = %v, want %v", q, time.Duration(got), long[i])
		}
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.record(v); v = v*3 + 7 }); n != 0 {
		t.Fatalf("record allocates %.1f times per call", n)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all hist
	for i := int64(1); i <= 1000; i++ {
		all.record(i * 1000)
		if i%2 == 0 {
			a.record(i * 1000)
		} else {
			b.record(i * 1000)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("merged q%v = %v, want %v", q, a.quantile(q), all.quantile(q))
		}
	}
}
