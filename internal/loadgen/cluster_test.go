package loadgen_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/loadgen"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/replica"
)

// startReplicas hosts an in-process m-replica cluster and returns its
// addresses.
func startReplicas(t *testing.T, m int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < m; i++ {
		st, err := netreg.NewStore("v0", 1, new(history.Sequencer))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := netreg.Serve("127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, srv.Addr())
		t.Cleanup(func() { srv.Close() })
	}
	return addrs
}

// TestRunClusterClosedLoop checks the cluster generator's closed-loop
// probe over the quorum engine: everything offered is achieved, nothing
// fails, the tally sees every logical op, and the depth-pipelined
// readers actually combine.
func TestRunClusterClosedLoop(t *testing.T) {
	addrs := startReplicas(t, 3)
	tally := obs.NewReplica(3)
	r, err := loadgen.RunCluster(loadgen.ClusterConfig{
		Addrs:    addrs,
		Mode:     replica.ModeABD,
		Clients:  2,
		Depth:    8,
		Duration: 300 * time.Millisecond,
		ReadFrac: 0.9,
		Seed:     1,
		Tally:    tally,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Load.Offered == 0 || r.Load.Offered != r.Load.Achieved {
		t.Fatalf("closed loop offered %d achieved %d, want equal and nonzero", r.Load.Offered, r.Load.Achieved)
	}
	if r.Load.Errors != 0 {
		t.Fatalf("%d errored operations", r.Load.Errors)
	}
	ops := tally.Ok(obs.QRead) + tally.Ok(obs.QWrite)
	if ops != r.Load.Achieved {
		t.Fatalf("tally saw %d logical ops, generator achieved %d", ops, r.Load.Achieved)
	}
	if tally.Combined(obs.QRead) == 0 {
		t.Error("depth-8 pipelined readers never combined a read")
	}
	if r.P50Us <= 0 || r.P99Us < r.P50Us {
		t.Fatalf("quantiles not sane: p50=%v p99=%v", r.P50Us, r.P99Us)
	}
}

// TestRingOption pins the Ring validation: not-a-power-of-two and
// smaller-than-Depth both fail before any connection dials, and a valid
// explicit ring runs with the exact configured depth.
func TestRingOption(t *testing.T) {
	srv := startServer(t, 1)
	base := loadgen.Config{
		Addr:     srv.Addr(),
		Conns:    1,
		Depth:    100,
		Duration: 100 * time.Millisecond,
		Seed:     6,
	}

	bad := base
	bad.Ring = 100
	if _, err := loadgen.Run(bad); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("Ring=100 error = %v, want power-of-two validation", err)
	}
	small := base
	small.Ring = 64
	if _, err := loadgen.Run(small); err == nil || !strings.Contains(err.Error(), "smaller than Depth") {
		t.Fatalf("Ring=64 < Depth=100 error = %v, want size validation", err)
	}
	good := base
	good.Ring = 256
	r, err := loadgen.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if r.Load.Offered == 0 || r.Load.Offered != r.Load.Achieved {
		t.Fatalf("explicit-ring run offered %d achieved %d", r.Load.Offered, r.Load.Achieved)
	}
}
