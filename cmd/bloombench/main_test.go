package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	atomicregister "repro"
	"repro/internal/obs"
)

// TestTablesSmoke runs the paper-claims tables with tiny op counts: the
// tables are the repository's experiment harness, and each checks its
// own rows, so a nil error from each is the assertion. Output goes to
// stdout (go test swallows it unless -v).
func TestTablesSmoke(t *testing.T) {
	const ops = 50
	// 7 is not a multiple of the other writer's period in the
	// writer-as-reader row, whose count must still come out exact.
	for _, n := range []int{ops, 7} {
		if err := costTable(n); err != nil {
			t.Errorf("costTable(%d): %v", n, err)
		}
	}
	if err := crashTable(); err != nil {
		t.Errorf("crashTable: %v", err)
	}
	if err := stackTable(); err != nil {
		t.Errorf("stackTable: %v", err)
	}
}

// TestCostTableFailsOnNaN pins that T-cost cannot pass vacuously: with
// no operations every row divides zero by zero, and a NaN row must
// count as a mismatch, not as OK.
func TestCostTableFailsOnNaN(t *testing.T) {
	if err := costTable(0); err == nil {
		t.Fatal("costTable(0) returned nil; its NaN rows passed as OK")
	}
}

// TestCertifyTableSmoke runs the -certify mode end to end with a tiny op
// count: every row self-checks (the offline and online rows must certify
// real traffic, the faulty row must certify the seeded lossy run, and
// the violation row must catch the synthetic non-atomic history), so "no
// error" is the whole assertion.
func TestCertifyTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several timed load probes")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	if err := certifyTable(50); err != nil {
		t.Fatalf("certifyTable: %v", err)
	}
}

// TestServeMux exercises the -serve handlers over httptest, without
// binding a real socket or starting workloads.
func TestServeMux(t *testing.T) {
	ob := atomicregister.NewObserver(1)
	reg := atomicregister.New(1, 0, atomicregister.WithObserver[int](ob))
	reg.Writer(0).Write(7)
	_ = reg.Reader(1).Read()

	ls, err := newLinzSurface()
	if err != nil {
		t.Fatalf("newLinzSurface: %v", err)
	}
	defer ls.srv.Close()

	srv := httptest.NewServer(newServeMux(map[string]*obs.Observer{"certifiable": ob}, ls))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics returned %d", code)
	}
	for _, series := range []string{
		`bloom_writes_total{writer="0",potency="potent",substrate="certifiable"} 1`,
		`bloom_reads_total{reader="1",substrate="certifiable"} 1`,
		`bloom_op_latency_seconds_count{op="write",channel="writer0",substrate="certifiable"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics lacks %q\ngot:\n%s", series, body)
		}
	}

	if !strings.Contains(body, "linz_windows_total") {
		t.Errorf("/metrics lacks the linz_windows_total series\ngot:\n%s", body)
	}

	code, body = get("/vars")
	if code != 200 || !strings.Contains(body, `"potent_writes": 1`) {
		t.Fatalf("/vars returned %d, body %s", code, body)
	}
	if !strings.Contains(body, `"linz"`) {
		t.Errorf("/vars lacks the linz snapshot, body %s", body)
	}

	code, body = get("/debug/linz")
	if code != 200 || !strings.Contains(body, "no violation observed") {
		t.Fatalf("/debug/linz returned %d, body %s", code, body)
	}
	code, body = get("/debug/linz?demo=1")
	if code != 200 || !strings.Contains(body, "linz violation timeline") {
		t.Fatalf("/debug/linz?demo=1 returned %d without a rendered timeline, body %.200s", code, body)
	}

	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ returned %d", code)
	}
	if code, _ := get("/"); code != 200 {
		t.Fatalf("/ returned %d", code)
	}
	if code, _ := get("/nosuch"); code != 404 {
		t.Fatalf("/nosuch returned %d, want 404", code)
	}
}
