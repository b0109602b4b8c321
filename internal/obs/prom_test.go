package obs

import (
	"strings"
	"testing"
	"time"
)

// TestFreshRegistryMetricsFinite scrapes every Prometheus exporter in the
// package on a completely fresh registry — zero observations anywhere —
// and asserts no NaN or Inf reaches the text format. A single non-finite
// sample fails the whole Prometheus scrape, so an empty histogram behind
// an interpolated-quantile family must suppress the family, not emit a
// fabricated number (the PR-9 bugfix this test pins).
func TestFreshRegistryMetricsFinite(t *testing.T) {
	exporters := map[string]func(*strings.Builder){
		"observer": func(b *strings.Builder) { New(2).WritePrometheus(b) },
		"rpc":      func(b *strings.Builder) { NewRPC().WritePrometheus(b) },
		"wire":     func(b *strings.Builder) { NewWire().WritePrometheus(b) },
		"linz":     func(b *strings.Builder) { NewLinz().WritePrometheus(b) },
		"replica":  func(b *strings.Builder) { NewReplica(3).WritePrometheus(b) },
	}
	for name, export := range exporters {
		var b strings.Builder
		export(&b)
		out := b.String()
		if out == "" {
			t.Errorf("%s: empty export on fresh registry", name)
		}
		for _, line := range strings.Split(out, "\n") {
			if v, bad := sampleValue(line); bad {
				t.Errorf("%s: non-finite sample value %q on fresh registry: %q", name, v, line)
			}
		}
		if strings.Contains(out, "_quantile_seconds{") {
			t.Errorf("%s: quantile gauges emitted for empty histograms:\n%s", name, out)
		}
	}
}

// TestQuantileGaugesAfterObservations is the counterpart: once a
// histogram has samples, its quantile family must appear, with finite
// values.
func TestQuantileGaugesAfterObservations(t *testing.T) {
	r := NewRPC()
	for i := 0; i < 100; i++ {
		r.Record(RPCRead, time.Duration(i)*time.Microsecond, RPCOK)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `netreg_roundtrip_latency_quantile_seconds{op="read",quantile="0.99"}`) {
		t.Fatalf("quantile gauges missing after observations:\n%s", out)
	}
	// The write-op histogram is still empty: its quantile series must
	// stay absent even while the read-op series is emitted.
	if strings.Contains(out, `netreg_roundtrip_latency_quantile_seconds{op="write"`) {
		t.Errorf("quantile gauges emitted for the empty write histogram:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if v, bad := sampleValue(line); bad {
			t.Errorf("non-finite sample value %q: %q", v, line)
		}
	}
}

// sampleValue extracts a metrics line's sample value (the last field) and
// reports whether it is non-finite. Comment lines and blanks report
// finite; the +Inf that may legitimately appear inside an le="" LABEL is
// not a sample value and does not count.
func sampleValue(line string) (string, bool) {
	if line == "" || strings.HasPrefix(line, "#") {
		return "", false
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", false
	}
	v := fields[len(fields)-1]
	low := strings.ToLower(v)
	return v, strings.Contains(low, "nan") || strings.Contains(low, "inf")
}
