package main

import "math/bits"

// The latency recorder is log-linear (HDR-style): values below 1.024 µs
// fall into histSub linear buckets, and every power-of-two octave above
// is split into histSub linear sub-buckets, so a bucket is never wider
// than 1/32 of its lower edge. (At 1/8 of an octave a bucket is up to
// 12.5% wide, too coarse for the instrument check's 5% on a tight
// distribution.) histOctaves octaves reach 2^40 ns ≈ 18 min, past the
// 10 min the benchmark promises to resolve; larger values pile into the
// last bucket but still set max exactly.
const (
	histMinShift = 10
	histSubBits  = 5
	histSub      = 1 << histSubBits
	histOctaves  = 30
	histBuckets  = (histOctaves + 1) * histSub
)

// hist records nanosecond durations. It is owned by one goroutine while
// recording and merged after that goroutine has finished, so it needs no
// synchronization, and record never allocates.
//
//bloom:allowshared
type hist struct {
	counts   [histBuckets]uint64
	n        uint64
	min, max int64
}

func bucketOf(ns int64) int {
	v := uint64(ns)
	if v < 1<<histMinShift {
		return int(v >> (histMinShift - histSubBits))
	}
	oct := bits.Len64(v>>histMinShift) - 1 // v in [2^(10+oct), 2^(11+oct))
	if oct >= histOctaves {
		return histBuckets - 1
	}
	sub := int(v>>(uint(oct)+histMinShift-histSubBits)) & (histSub - 1)
	return (oct+1)*histSub + sub
}

// bucketBounds returns bucket i's value range [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	width := float64(int64(1) << (histMinShift - histSubBits))
	if i < histSub {
		return float64(i) * width, float64(i+1) * width
	}
	oct, sub := i/histSub-1, i%histSub
	base := float64(int64(1) << (oct + histMinShift))
	width = base / histSub
	return base + float64(sub)*width, base + float64(sub+1)*width
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)]++
	if h.n == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it and clamping to the exact extremes.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketBounds(i)
			v := lo + (hi-lo)*(target-cum)/float64(c)
			return min(max(v, float64(h.min)), float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// quantileUs is quantile in microseconds.
func (h *hist) quantileUs(q float64) float64 { return h.quantile(q) / 1e3 }
