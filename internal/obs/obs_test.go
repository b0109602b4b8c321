package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the histogram's bucket function to its
// documented boundaries: bucket i counts 2^(i-1) ≤ d < 2^i ns, bucket 0
// counts sub-nanosecond zeros, and the last bucket absorbs everything
// above the largest bound.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-5, 0}, // clock skew: clamped, not a panic
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1<<27 - 1, NumBuckets - 2},   // the last bounded bucket's top
		{1 << 27, NumBuckets - 1},     // 2^27 ns ≈ 0.134s: the +Inf bucket starts here
		{time.Second, NumBuckets - 1}, // 1e9 ns needs 30 bits → capped into +Inf
		{time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.d)
		if got := h.Bucket(c.want); got != 1 {
			for i := 0; i < NumBuckets; i++ {
				if h.Bucket(i) == 1 {
					t.Errorf("Observe(%v) landed in bucket %d, want %d", c.d, i, c.want)
				}
			}
			continue
		}
		if c.want < NumBuckets-1 {
			// The duration must be strictly below its bucket's bound and
			// at or above the previous bound.
			if c.d >= BucketBound(c.want) {
				t.Errorf("d=%v ≥ bound(%d)=%v", c.d, c.want, BucketBound(c.want))
			}
			if c.want > 0 && c.d > 0 && c.d < BucketBound(c.want-1) {
				t.Errorf("d=%v < bound(%d)=%v", c.d, c.want-1, BucketBound(c.want-1))
			}
		}
	}
	if BucketBound(NumBuckets-1) >= 0 {
		t.Errorf("last bucket bound = %v, want negative (+Inf marker)", BucketBound(NumBuckets-1))
	}
}

// TestHistTotals checks Count and Sum across a spread of observations.
func TestHistTotals(t *testing.T) {
	var h Hist
	var sum time.Duration
	for _, d := range []time.Duration{0, 1, 7, 1024, time.Millisecond, time.Second} {
		h.Observe(d)
		sum += d
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
}

func TestHistQuantile(t *testing.T) {
	h := &Hist{}
	// 1000 observations at ~1µs, 10 at ~1ms: p50 in the µs bucket, p999+
	// in the ms bucket.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	if p50 < 512*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1µs", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 512*time.Microsecond || p999 > 2*time.Millisecond {
		t.Fatalf("p999 = %v, want ~1ms", p999)
	}
	if q := h.Quantile(0); q > p50 {
		t.Fatalf("q0 = %v above p50 %v", q, p50)
	}
	if q0, q1 := h.Quantile(0.2), h.Quantile(0.99); q0 > q1 {
		t.Fatalf("quantiles not monotone: q(0.2)=%v > q(0.99)=%v", q0, q1)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	h := &Hist{}
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty hist quantile = %v, want 0", q)
	}
}

// TestNilObserverIsFree checks the disabled path: every recording method
// must be a no-op on a nil observer.
func TestNilObserverIsFree(t *testing.T) {
	var o *Observer
	o.RecordWrite(0, true, time.Microsecond)
	o.RecordRead(1, time.Microsecond)
	o.RecordWriterRead(1, false, time.Microsecond)
	o.RecordCertify(true)
}

// TestObserverCounters drives each recording method and checks every
// accessor and the snapshot agree.
func TestObserverCounters(t *testing.T) {
	o := New(2)
	o.RecordWrite(0, true, time.Microsecond)
	o.RecordWrite(0, false, time.Microsecond)
	o.RecordWrite(1, true, time.Microsecond)
	o.RecordWriterRead(0, true, time.Microsecond)
	o.RecordWriterRead(0, false, time.Microsecond)
	o.RecordRead(1, time.Microsecond)
	o.RecordRead(2, 2*time.Microsecond)
	o.RecordRead(2, 2*time.Microsecond)
	o.RecordCertify(true)
	o.RecordCertify(false)

	if o.PotentWrites(0) != 1 || o.ImpotentWrites(0) != 1 || o.PotentWrites(1) != 1 || o.ImpotentWrites(1) != 0 {
		t.Fatalf("write counts wrong: %d/%d, %d/%d",
			o.PotentWrites(0), o.ImpotentWrites(0), o.PotentWrites(1), o.ImpotentWrites(1))
	}
	if o.WriterReadFast(0) != 1 || o.WriterReadSlow(0) != 1 {
		t.Fatalf("writer-read counts wrong: fast=%d slow=%d", o.WriterReadFast(0), o.WriterReadSlow(0))
	}

	s := o.Snapshot()
	if s.CertifyOK != 1 || s.CertifyFail != 1 {
		t.Fatalf("certify counts = %d/%d, want 1/1", s.CertifyOK, s.CertifyFail)
	}
	if s.Writers[0].Writes != 2 || s.Writers[0].WriterReads != 2 {
		t.Fatalf("writer 0 snapshot = %+v", s.Writers[0])
	}
	if s.Readers[0].Reads != 1 || s.Readers[1].Reads != 2 {
		t.Fatalf("reader snapshots = %+v", s.Readers)
	}
	if s.Readers[1].ReadLatency.SumNs != 4000 {
		t.Fatalf("reader 2 latency sum = %d ns, want 4000", s.Readers[1].ReadLatency.SumNs)
	}

	// The observer itself marshals as its snapshot (expvar convention).
	blob, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"potent_writes":1`) {
		t.Fatalf("marshalled observer lacks potent_writes: %s", blob)
	}
}

// TestPrometheusText checks the /metrics rendering: series names, labels,
// extra-label injection, and cumulative bucket counts.
func TestPrometheusText(t *testing.T) {
	o := New(1)
	o.RecordWrite(0, true, 3) // bucket 2 (2 ≤ 3 < 4)
	o.RecordWrite(0, true, 100*time.Millisecond)
	o.RecordRead(1, time.Microsecond)
	o.RecordCertify(true)

	var buf bytes.Buffer
	o.WritePrometheus(&buf, Label{Name: "substrate", Value: "mutex"})
	text := buf.String()
	for _, want := range []string{
		`bloom_writes_total{writer="0",potency="potent",substrate="mutex"} 2`,
		`bloom_writes_total{writer="1",potency="potent",substrate="mutex"} 0`,
		`bloom_reads_total{reader="1",substrate="mutex"} 1`,
		`bloom_certify_runs_total{outcome="ok",substrate="mutex"} 1`,
		`bloom_op_latency_seconds_count{op="write",channel="writer0",substrate="mutex"} 2`,
		`bloom_op_latency_seconds_bucket{op="write",channel="writer0",le="4e-09",substrate="mutex"} 1`,
		`bloom_op_latency_seconds_bucket{op="write",channel="writer0",le="+Inf",substrate="mutex"} 2`,
		`# TYPE bloom_op_latency_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text lacks %q\ngot:\n%s", want, text)
		}
	}
}

// TestPrometheusQuantiles checks the interpolated-quantile companion
// family: the series exist under the gauge type with quantile labels,
// and a skewed distribution lands the median and the tails in the right
// buckets, in order.
func TestPrometheusQuantiles(t *testing.T) {
	o := New(1)
	for i := 0; i < 990; i++ {
		o.RecordWrite(0, true, time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		o.RecordWrite(0, true, 100*time.Millisecond)
	}

	var buf bytes.Buffer
	o.WritePrometheus(&buf)
	text := buf.String()
	if !strings.Contains(text, "# TYPE bloom_op_latency_quantile_seconds gauge") {
		t.Fatalf("quantile family not declared as gauge:\n%s", text)
	}
	q := func(label string) float64 {
		prefix := fmt.Sprintf(`bloom_op_latency_quantile_seconds{op="write",channel="writer0",quantile=%q} `, label)
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("unparsable quantile line %q: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("no series with prefix %q:\n%s", prefix, text)
		return 0
	}
	p50, p99, p999 := q("0.5"), q("0.99"), q("0.999")
	if !(p50 > 0 && p50 <= p99 && p99 <= p999) {
		t.Fatalf("quantiles out of order: p50=%g p99=%g p999=%g", p50, p99, p999)
	}
	// 99% of observations are 1ms, 1% are 100ms: the median interpolates
	// inside the 1ms bucket and the p999 inside the 100ms bucket.
	if p50 < 0.0005 || p50 > 0.002 {
		t.Fatalf("p50 = %gs, want ≈1ms", p50)
	}
	if p999 < 0.05 || p999 > 0.2 {
		t.Fatalf("p999 = %gs, want ≈100ms", p999)
	}
}

// TestConcurrentRecording is the race soak: every channel records in its
// own goroutine while scrapers snapshot and export concurrently. Run with
// -race (CI does); the assertion at the end checks nothing was lost.
func TestConcurrentRecording(t *testing.T) {
	const perChan = 5000
	o := New(2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perChan; k++ {
				o.RecordWrite(i, k%2 == 0, time.Duration(k))
				o.RecordWriterRead(i, k%3 == 0, time.Duration(k))
			}
		}(i)
	}
	for j := 1; j <= 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := 0; k < perChan; k++ {
				o.RecordRead(j, time.Duration(k))
			}
		}(j)
	}
	// Concurrent scrapers.
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = o.Snapshot()
				buf.Reset()
				o.WritePrometheus(&buf)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	for i := 0; i < 2; i++ {
		if got := o.PotentWrites(i) + o.ImpotentWrites(i); got != perChan {
			t.Fatalf("writer %d recorded %d writes, want %d", i, got, perChan)
		}
		if got := o.WriterReadFast(i) + o.WriterReadSlow(i); got != perChan {
			t.Fatalf("writer %d recorded %d writer-reads, want %d", i, got, perChan)
		}
	}
	s := o.Snapshot()
	for j := 0; j < 2; j++ {
		if s.Readers[j].Reads != perChan {
			t.Fatalf("reader %d recorded %d reads, want %d", j+1, s.Readers[j].Reads, perChan)
		}
	}
}

// TestRPCTally covers the netreg round-trip tally: per-op outcome counts
// and the Prometheus rendering.
func TestRPCTally(t *testing.T) {
	r := NewRPC()
	r.Record(RPCRead, time.Microsecond, RPCOK)
	r.Record(RPCRead, time.Millisecond, RPCTimeout)
	r.Record(RPCWrite, time.Microsecond, RPCOK)
	r.Record(RPCWrite, time.Microsecond, RPCError)
	if r.Ok(RPCRead) != 1 || r.Timeouts(RPCRead) != 1 || r.Errors(RPCRead) != 0 {
		t.Fatalf("read tally = %d/%d/%d", r.Ok(RPCRead), r.Timeouts(RPCRead), r.Errors(RPCRead))
	}
	if r.Ok(RPCWrite) != 1 || r.Timeouts(RPCWrite) != 0 || r.Errors(RPCWrite) != 1 {
		t.Fatalf("write tally = %d/%d/%d", r.Ok(RPCWrite), r.Timeouts(RPCWrite), r.Errors(RPCWrite))
	}

	var nilRPC *RPC
	nilRPC.Record(RPCRead, time.Microsecond, RPCOK) // nil-safe like Observer

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`netreg_roundtrips_total{op="read",outcome="ok"} 1`,
		`netreg_roundtrips_total{op="read",outcome="timeout"} 1`,
		`netreg_roundtrips_total{op="write",outcome="error"} 1`,
		`netreg_roundtrip_latency_seconds_count{op="write"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("RPC Prometheus text lacks %q\ngot:\n%s", want, text)
		}
	}
}

// TestRPCRecoveryTally covers the recovery side of the tally — retries,
// reconnects with latency, breaker events — through the accessors, the
// snapshot, and the Prometheus rendering.
func TestRPCRecoveryTally(t *testing.T) {
	r := NewRPC()
	r.RecordRetry(RPCWrite)
	r.RecordRetry(RPCWrite)
	r.RecordRetry(RPCRead)
	r.RecordReconnect(2*time.Millisecond, true)
	r.RecordReconnect(time.Millisecond, false)
	r.RecordBreakerOpen()
	r.RecordBreakerFastFail()
	r.RecordBreakerFastFail()

	if r.Retries(RPCWrite) != 2 || r.Retries(RPCRead) != 1 {
		t.Fatalf("retries = %d write / %d read, want 2/1", r.Retries(RPCWrite), r.Retries(RPCRead))
	}
	ok, failed := r.Reconnects()
	if ok != 1 || failed != 1 {
		t.Fatalf("reconnects = %d ok / %d failed, want 1/1", ok, failed)
	}
	if r.BreakerOpens() != 1 || r.BreakerFastFails() != 2 {
		t.Fatalf("breaker = %d opens / %d fastfails, want 1/2", r.BreakerOpens(), r.BreakerFastFails())
	}

	// Nil-safety of every recovery recorder.
	var nilRPC *RPC
	nilRPC.RecordRetry(RPCRead)
	nilRPC.RecordReconnect(time.Millisecond, true)
	nilRPC.RecordBreakerOpen()
	nilRPC.RecordBreakerFastFail()

	s := r.Snapshot()
	if s.Recovery.ReconnectOK != 1 || s.Recovery.ReconnectFail != 1 {
		t.Fatalf("snapshot recovery = %+v", s.Recovery)
	}
	if s.Recovery.ReconnectLatency.Count != 1 {
		t.Fatalf("reconnect latency count = %d, want 1 (failures must not feed it)", s.Recovery.ReconnectLatency.Count)
	}
	if s.Recovery.BreakerOpens != 1 || s.Recovery.BreakerFastFails != 2 {
		t.Fatalf("snapshot breaker = %+v", s.Recovery)
	}
	var wantRetries = map[string]int64{"read": 1, "write": 2}
	for _, op := range s.Ops {
		if op.Retries != wantRetries[op.Op] {
			t.Fatalf("snapshot retries for %s = %d, want %d", op.Op, op.Retries, wantRetries[op.Op])
		}
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf, Label{Name: "node", Value: "a"})
	text := buf.String()
	for _, want := range []string{
		`netreg_retries_total{op="write",node="a"} 2`,
		`netreg_reconnects_total{outcome="ok",node="a"} 1`,
		`netreg_reconnects_total{outcome="fail",node="a"} 1`,
		`netreg_reconnect_latency_seconds_count{node="a"} 1`,
		`netreg_breaker_events_total{event="open",node="a"} 1`,
		`netreg_breaker_events_total{event="fastfail",node="a"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("RPC Prometheus text lacks %q\ngot:\n%s", want, text)
		}
	}

	// The live tally marshals as its snapshot (expvar convention).
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"breaker_opens":1`) {
		t.Errorf("snapshot JSON lacks breaker_opens: %s", blob)
	}
}
