// Package obs is the repository's always-on observability layer: sharded
// atomic counters and fixed-bucket latency histograms for the two-writer
// protocol, cheap enough to leave attached in production and exportable as
// an expvar-style JSON snapshot or Prometheus text.
//
// # Design
//
// The simulated register has a fixed port structure — two writer channels
// and n reader channels, each a sequential automaton — so the observer is
// sharded the same way: one cache-line-padded shard per channel, touched
// only by that channel's goroutine. Recording an operation is therefore a
// handful of uncontended atomic adds; atomics are needed only so that
// scrapers (Snapshot, WritePrometheus) can read concurrently, never for
// cross-channel mutual exclusion. The disabled path costs one nil check in
// package core.
//
// Beyond generic counts and latencies, the observer tracks the protocol's
// own semantics (Section 7 of the paper):
//
//   - potent vs. impotent writes, classified online: immediately after its
//     real write, the writer samples Reg¬i once more and checks whether
//     the tag sum t_i ⊕ t_¬i equals its index. The sample is taken one
//     real read after the write instant, so under contention a write by
//     the other writer can land in that window and flip the observed
//     class; on deterministic replays (and in practice at sane write
//     rates) the classification matches the certifier's exactly — the
//     conformance tests in internal/core replay every schedule of a small
//     configuration and assert equality with proof.Certify.
//   - writer-as-reader fast path (final read served from the local copy,
//     one real read total) vs. slow path (a second real read needed).
//   - Certify outcomes on recorded runs, fed back by the facade.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// cacheLine is the assumed coherence granularity (see the identical
// constant in internal/register).
const cacheLine = 64

// NumBuckets is the number of latency histogram buckets. Bucket i counts
// durations d with 2^(i-1) ≤ d < 2^i nanoseconds (bucket 0 counts d < 1ns,
// i.e. clock-resolution zeros); the last bucket additionally absorbs
// everything ≥ 2^(NumBuckets-2) ns = 2^27 ns (≈ 0.134s), serving as the
// +Inf bucket.
const NumBuckets = 29

// Hist is a fixed-bucket latency histogram with power-of-two boundaries.
// Observe is wait-free (one atomic add per bucket and sum); the exported
// accessors may race with writers and see a torn-but-monotone view, which
// is the usual contract for scrape-style metrics.
type Hist struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64 // total nanoseconds
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i: durations
// strictly below it fall in buckets 0..i. The last bucket is unbounded and
// returns a negative duration as its "+Inf" marker.
func BucketBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return -1
	}
	return time.Duration(int64(1) << uint(i))
}

// Observe records one duration. Its callers sit on hot paths — the core
// observer once per simulated operation, the netreg RPC stats once per
// round trip, the replica tally once per quorum op — so it must never
// block.
//
//bloom:waitfree
//bloom:noalloc
func (h *Hist) Observe(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Hist) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the recorded
// durations, linearly interpolated within the containing power-of-two
// bucket. It is shorthand for Snapshot().Quantile(q), the interpolation
// behind the /metrics quantile gauges of the core observer, the netreg
// RPC stats and the replica tally; with no observations it returns 0.
func (h *Hist) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Sum returns the sum of all observed durations.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Bucket returns the count in bucket i.
func (h *Hist) Bucket(i int) int64 { return h.counts[i].Load() }

// writerShard is one writer channel's metrics. The trailing pad keeps the
// next shard's hot words off this shard's last cache line; the shard is
// written only by its writer's goroutine.
//
//bloom:sharded
type writerShard struct {
	writeLat   Hist
	wrReadLat  Hist // combined writer/reader simulated reads
	potent     atomic.Int64
	impotent   atomic.Int64
	wrReadFast atomic.Int64 // final read served from the local copy (1 real read)
	wrReadSlow atomic.Int64 // final read needed a second real access
	_          [cacheLine]byte
}

// readerShard is one dedicated reader channel's metrics.
//
//bloom:sharded
type readerShard struct {
	readLat Hist
	_       [cacheLine]byte
}

// Observer aggregates one simulated register's metrics. All recording
// methods are safe on a nil receiver (they then do nothing), mirroring the
// Recorder convention in internal/core, and each channel's methods must
// only be called from that channel's (sequential) goroutine — the same
// discipline the register handles already impose.
type Observer struct {
	writers [2]writerShard
	readers []readerShard

	certifyOK   atomic.Int64
	certifyFail atomic.Int64

	start time.Time
}

// New returns an observer for a register with n dedicated readers.
func New(n int) *Observer {
	if n < 0 {
		panic("obs: negative reader count")
	}
	return &Observer{readers: make([]readerShard, n), start: time.Now()}
}

// NumReaders returns the number of dedicated reader channels.
func (o *Observer) NumReaders() int { return len(o.readers) }

// RecordWrite records one completed simulated write by writer i with its
// latency and online potency classification.
//
//bloom:noalloc
func (o *Observer) RecordWrite(i int, potent bool, d time.Duration) {
	if o == nil {
		return
	}
	s := &o.writers[i]
	s.writeLat.Observe(d)
	if potent {
		s.potent.Add(1)
	} else {
		s.impotent.Add(1)
	}
}

// RecordRead records one completed simulated read by dedicated reader j
// (1-based, matching core.Reader.Index).
//
//bloom:noalloc
func (o *Observer) RecordRead(j int, d time.Duration) {
	if o == nil {
		return
	}
	o.readers[j-1].readLat.Observe(d)
}

// RecordWriterRead records one completed simulated read by writer i's
// combined writer/reader automaton; fast reports that the final read was
// served from the local copy (one real read total).
//
//bloom:noalloc
func (o *Observer) RecordWriterRead(i int, fast bool, d time.Duration) {
	if o == nil {
		return
	}
	s := &o.writers[i]
	s.wrReadLat.Observe(d)
	if fast {
		s.wrReadFast.Add(1)
	} else {
		s.wrReadSlow.Add(1)
	}
}

// RecordCertify records the outcome of certifying a recorded run of the
// observed register.
func (o *Observer) RecordCertify(ok bool) {
	if o == nil {
		return
	}
	if ok {
		o.certifyOK.Add(1)
	} else {
		o.certifyFail.Add(1)
	}
}

// PotentWrites returns writer i's potent-write count.
func (o *Observer) PotentWrites(i int) int64 { return o.writers[i].potent.Load() }

// ImpotentWrites returns writer i's impotent-write count.
func (o *Observer) ImpotentWrites(i int) int64 { return o.writers[i].impotent.Load() }

// WriterReadFast returns writer i's local-copy fast-path read count.
func (o *Observer) WriterReadFast(i int) int64 { return o.writers[i].wrReadFast.Load() }

// WriterReadSlow returns writer i's 2-read slow-path read count.
func (o *Observer) WriterReadSlow(i int) int64 { return o.writers[i].wrReadSlow.Load() }
